package bsd

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"ldcdft/internal/par"
)

// TestNestedLoopPanicFailsTask: a kernel panic inside a task's nested
// internal/par loop — in a chunk past the first, which a pool helper
// rather than the task's worker usually runs — fails that task with a
// *TaskPanicError carrying its index instead of crashing the process.
func TestNestedLoopPanicFailsTask(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := Pool{Workers: 2}
	for rep := 0; rep < 10; rep++ {
		err := p.RunWorkers(6, func(_, i int) error {
			par.For(16, 1, func(lo, _ int) {
				time.Sleep(20 * time.Microsecond)
				if i == 3 && lo == 11 {
					panic("kernel chunk 11 blew up")
				}
			})
			return nil
		})
		var pe *TaskPanicError
		if !errors.As(err, &pe) || pe.Index != 3 || pe.Value != "kernel chunk 11 blew up" {
			t.Fatalf("rep %d: err = %v, want the panic of task 3", rep, err)
		}
	}
}
