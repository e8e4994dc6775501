// Package bsd runs the coarse level of the hierarchical band-space-domain
// decomposition of §3.3 in this process: where the paper distributes DC
// domains over dedicated core groups (its MPI_COMM_SPLIT communicators),
// Pool runs the domain solves concurrently on a bounded worker set of
// the shared internal/par pool.
package bsd

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"ldcdft/internal/par"
)

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

// RunWorkers executes task(w, i) for i in [0, n), attempting every task
// and returning the error of the lowest-index failing task, so a failure
// is deterministic across runs and worker counts. Panics in tasks are
// recovered and reported as *TaskPanicError. Task i runs on worker w, a
// stable index in [0, workers), and exactly one task runs on a given
// worker at a time, so per-worker state (a solver workspace, a scratch
// arena) needs no locking — this is the executor behind the streaming
// domain scheduler, where each worker owns one reusable workspace and
// domains flow through the bounded worker set. The workers are the
// chunks of one par.For and claim tasks in order.
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
