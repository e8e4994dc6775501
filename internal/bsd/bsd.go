// Package bsd implements the hierarchical band-space-domain decomposition
// of §3.3: at the coarse level, DC domains are distributed over dedicated
// core groups (the MPI_COMM_SPLIT communicators of the paper); within each
// group, work is split alternately over bands (different Kohn–Sham states
// on different cores) and space (different real/reciprocal grid points),
// with all-to-all transposes to switch between the two (Fig. 4).
//
// Two layers are provided: Plan/Decomposition is the pure bookkeeping of
// the paper's core assignment, and Pool runs domain solves concurrently
// in this process on the shared internal/par pool.
package bsd

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"ldcdft/internal/par"
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

// Pool executes tasks on a bounded set of workers — the in-process
// equivalent of the coarse task decomposition over domain communicators.
type Pool struct {
	Workers int // 0 → GOMAXPROCS
}

// TaskPanicError is the error a Pool returns when a task panicked: the
// panic is recovered on the worker running the task and converted into an
// error carrying the task index (the domain that failed) and the stack at
// the panic site, so one bad domain solve does not kill the whole process
// without attribution — even from a nested par.For chunk on a helper.
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
// returning the error of the lowest-index failing task, so a failure is
// deterministic across runs and worker counts. Panics in tasks are
// recovered and reported as *TaskPanicError.
func (p *Pool) Run(n int, task func(i int) error) error {
	return p.RunWorkers(n, func(_, i int) error { return task(i) })
}

// RunWorkers is Run with worker identity: task(w, i) runs task i on
// worker w, where w is a stable index in [0, workers). Exactly one task
// runs on a given worker at a time, so per-worker state (a solver
// workspace, a scratch arena) needs no locking — this is the executor
// behind the streaming domain scheduler, where each worker owns one
// reusable workspace and domains flow through the bounded worker set.
// The workers are the chunks of one par.For and claim tasks in order.
func (p *Pool) RunWorkers(n int, task func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	// Each task owns errs[i]; par.For returns after every worker, so the
	// scan below is race-free and picks the lowest-index error.
	errs := make([]error, n)
	var next atomic.Int64
	par.For(p.NumWorkers(n), 1, func(w, _ int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			errs[i] = runTask(w, i, task)
		}
	})
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
		workers = par.Procs()
	}
	return max(min(workers, n), 1)
}
