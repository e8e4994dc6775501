package bsd

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolFirstErrorIsLowestIndex verifies the deterministic error
// contract: RunWorkers returns the error of the lowest-index failing task, not
// whichever worker reported first. The lowest failing task sleeps so
// that, under the old channel-based implementation, later failures would
// almost surely be reported first.
func TestPoolFirstErrorIsLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := Pool{Workers: workers}
			const n = 64
			err := p.RunWorkers(n, func(_, i int) error {
				switch {
				case i == 32:
					time.Sleep(2 * time.Millisecond)
					return fmt.Errorf("task %d failed", i)
				case i > 32:
					return fmt.Errorf("task %d failed", i)
				}
				return nil
			})
			if err == nil {
				t.Fatal("expected an error")
			}
			if got, want := err.Error(), "task 32 failed"; got != want {
				t.Fatalf("RunWorkers returned %q, want lowest-index error %q", got, want)
			}
		})
	}
}

// TestPoolAllTasksAttempted verifies that a failure does not stop the
// remaining tasks.
func TestPoolAllTasksAttempted(t *testing.T) {
	p := Pool{Workers: 4}
	const n = 40
	done := make([]bool, n)
	err := p.RunWorkers(n, func(_, i int) error {
		done[i] = true
		if i%7 == 0 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 0 failed" {
		t.Fatalf("err = %v, want task 0 failed", err)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("task %d was not attempted", i)
		}
	}
}

// TestPoolRecoversPanic verifies that a panicking task is converted into
// a *TaskPanicError carrying the task index and a stack trace, in both
// the serial and concurrent paths.
func TestPoolRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := Pool{Workers: workers}
			err := p.RunWorkers(16, func(_, i int) error {
				if i == 7 {
					panic("domain solve blew up")
				}
				return nil
			})
			var pe *TaskPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v (%T), want *TaskPanicError", err, err)
			}
			if pe.Index != 7 {
				t.Fatalf("panic index = %d, want 7", pe.Index)
			}
			if pe.Value != "domain solve blew up" {
				t.Fatalf("panic value = %v", pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Fatal("panic error carries no stack")
			}
			if !strings.Contains(pe.Error(), "task 7 panicked") {
				t.Fatalf("Error() = %q lacks task attribution", pe.Error())
			}
		})
	}
}

// TestPoolPanicVsErrorOrdering: a panic at a lower index outranks a plain
// error at a higher index, and vice versa.
func TestPoolPanicVsErrorOrdering(t *testing.T) {
	p := Pool{Workers: 8}
	err := p.RunWorkers(16, func(_, i int) error {
		if i == 3 {
			panic("early panic")
		}
		if i == 10 {
			return errors.New("late error")
		}
		return nil
	})
	var pe *TaskPanicError
	if !errors.As(err, &pe) || pe.Index != 3 {
		t.Fatalf("err = %v, want panic from task 3", err)
	}

	err = p.RunWorkers(16, func(_, i int) error {
		if i == 3 {
			return errors.New("early error")
		}
		if i == 10 {
			panic("late panic")
		}
		return nil
	})
	if err == nil || err.Error() != "early error" {
		t.Fatalf("err = %v, want early error from task 3", err)
	}
}

// TestPoolZeroTasks: n <= 0 is a no-op.
func TestPoolZeroTasks(t *testing.T) {
	p := Pool{Workers: 4}
	if err := p.RunWorkers(0, func(int, int) error { return errors.New("must not run") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	if err := p.RunWorkers(-3, func(int, int) error { return errors.New("must not run") }); err != nil {
		t.Fatalf("n=-3: %v", err)
	}
}

// TestRunWorkers: every task runs exactly once, worker ids stay in
// range, and no two tasks run concurrently on the same worker.
func TestRunWorkers(t *testing.T) {
	const n = 64
	p := Pool{Workers: 4}
	var ran [n]int32
	var busy [4]int32
	err := p.RunWorkers(n, func(w, i int) error {
		if w < 0 || w >= 4 {
			t.Errorf("worker id %d out of range", w)
		}
		if atomic.AddInt32(&busy[w], 1) != 1 {
			t.Errorf("worker %d ran two tasks concurrently", w)
		}
		atomic.AddInt32(&ran[i], 1)
		atomic.AddInt32(&busy[w], -1)
		return nil
	})
	if err != nil {
		t.Fatalf("RunWorkers: %v", err)
	}
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

// TestRunWorkersErrors: lowest-index error wins and panics are
// converted, matching RunWorkers.
func TestRunWorkersErrors(t *testing.T) {
	p := Pool{Workers: 3}
	err := p.RunWorkers(16, func(w, i int) error {
		if i == 5 {
			return errors.New("five")
		}
		if i == 11 {
			panic("eleven")
		}
		return nil
	})
	if err == nil || err.Error() != "five" {
		t.Fatalf("err = %v, want five", err)
	}
	err = p.RunWorkers(8, func(w, i int) error {
		if i == 2 {
			panic("two")
		}
		return nil
	})
	var pe *TaskPanicError
	if !errors.As(err, &pe) || pe.Index != 2 {
		t.Fatalf("err = %v, want panic from task 2", err)
	}
}

// TestNumWorkers pins the per-worker state sizing rule.
func TestNumWorkers(t *testing.T) {
	p := Pool{Workers: 6}
	if got := p.NumWorkers(100); got != 6 {
		t.Fatalf("NumWorkers(100) = %d, want 6", got)
	}
	if got := p.NumWorkers(3); got != 3 {
		t.Fatalf("NumWorkers(3) = %d, want 3", got)
	}
	if got := p.NumWorkers(0); got != 1 {
		t.Fatalf("NumWorkers(0) = %d, want 1", got)
	}
}
