// Package bsd implements the hierarchical band-space-domain decomposition
// of §3.3: at the coarse level, DC domains are distributed over dedicated
// core groups (the MPI_COMM_SPLIT communicators of the paper); within each
// group, work is split alternately over bands (different Kohn–Sham states
// on different cores) and space (different real/reciprocal grid points),
// with all-to-all transposes to switch between the two (Fig. 4).
//
// Two layers are provided: Plan/Decomposition is the pure bookkeeping used
// by the machine performance model, and Pool is the real goroutine
// executor that runs domain solves concurrently in this process.
package bsd

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Decomposition records how cores are assigned across the BSD hierarchy.
type Decomposition struct {
	Cores   int // total cores
	Domains int // DC domains (coarse task decomposition)

	// Within one domain communicator:
	CoresPerDomain int
	BandGroups     int // cores along the band axis
	SpaceGroups    int // cores along the space axis (grid points)
}

// Plan chooses a balanced decomposition: domains get equal core groups;
// within a group the band axis is filled first (band parallelism needs no
// communication during CG refinement, §3.3) up to the band count, the
// rest goes to the space axis.
func Plan(cores, domains, bandsPerDomain int) (Decomposition, error) {
	if cores < 1 || domains < 1 || bandsPerDomain < 1 {
		return Decomposition{}, fmt.Errorf("bsd: invalid plan inputs %d/%d/%d", cores, domains, bandsPerDomain)
	}
	d := Decomposition{Cores: cores, Domains: domains}
	d.CoresPerDomain = cores / domains
	if d.CoresPerDomain < 1 {
		d.CoresPerDomain = 1
	}
	d.BandGroups = d.CoresPerDomain
	if d.BandGroups > bandsPerDomain {
		d.BandGroups = bandsPerDomain
	}
	d.SpaceGroups = d.CoresPerDomain / d.BandGroups
	if d.SpaceGroups < 1 {
		d.SpaceGroups = 1
	}
	return d, nil
}

// Waves returns how many sequential waves of domain solves are needed
// when domains outnumber core groups.
func (d Decomposition) Waves() int {
	groups := d.Cores / d.CoresPerDomain
	if groups < 1 {
		groups = 1
	}
	return (d.Domains + groups - 1) / groups
}

// TransposeBytesPerCore returns the bytes each core contributes to one
// band↔space all-to-all: its share of the packed wave-function matrix
// (complex128 coefficients).
func (d Decomposition) TransposeBytesPerCore(planeWaves, bands int) int64 {
	total := int64(16) * int64(planeWaves) * int64(bands)
	return total / int64(d.CoresPerDomain)
}

// OverlapMatrixBytes returns the size of the Nband×Nband overlap matrix
// reduced across the domain communicator during orthonormalization.
func (d Decomposition) OverlapMatrixBytes(bands int) int64 {
	return int64(16) * int64(bands) * int64(bands)
}

// Pool executes tasks on a bounded set of goroutines — the in-process
// equivalent of the coarse task decomposition over domain communicators.
type Pool struct {
	Workers int // 0 → GOMAXPROCS
}

// TaskPanicError is the error a Pool returns when a task panicked: the
// panic is recovered in the worker goroutine and converted into an error
// carrying the task index (the domain that failed) and the stack at the
// panic site, so one bad domain solve does not kill the whole process
// without attribution.
type TaskPanicError struct {
	Index int    // index of the panicking task
	Value any    // the recovered panic value
	Stack []byte // stack captured at the panic site
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("bsd: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// runTask invokes task(w, i), converting a panic into a *TaskPanicError.
func runTask(w, i int, task func(worker, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &TaskPanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return task(w, i)
}

// Run executes task(i) for i in [0, n), attempting every task and
// returning the error of the lowest-index failing task. The serial and
// concurrent paths agree on this ordering, so a failure is deterministic
// across runs and worker counts. Panics in tasks are recovered and
// reported as *TaskPanicError.
func (p *Pool) Run(n int, task func(i int) error) error {
	return p.RunWorkers(n, func(_, i int) error { return task(i) })
}

// RunWorkers is Run with worker identity: task(w, i) runs task i on
// worker w, where w is a stable index in [0, workers). Exactly one task
// runs on a given worker at a time, so per-worker state (a solver
// workspace, a scratch arena) needs no locking — this is the executor
// behind the streaming domain scheduler, where each worker owns one
// reusable workspace and domains flow through the bounded worker set.
func (p *Pool) RunWorkers(n int, task func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.NumWorkers(n)
	// Each task owns errs[i]; wg.Wait orders all writes before the scan,
	// so the scan below is race-free and picks the lowest-index error.
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = runTask(0, i, task)
		}
	} else {
		next := make(chan int, n)
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range next {
					errs[i] = runTask(w, i, task)
				}
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// NumWorkers reports the worker count RunWorkers will use for n tasks —
// the size a caller should allocate its per-worker state to.
func (p *Pool) NumWorkers(n int) int {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
