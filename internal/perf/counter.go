// Package perf provides floating-point operation accounting and phase
// instrumentation mirroring the paper's use of the Blue Gene performance
// monitoring (BGPM) hardware counters (section 4.2).
//
// Numerical kernels (linalg, fft, pw) report their floating-point work to
// a Counter and time their regions as Phases; higher-level code converts
// counts and wall-clock time into FLOP/s figures. The modelled at-scale
// performance of Tables 1 and 2 lives in internal/machine.
package perf

import "sync/atomic"

// Counter accumulates floating-point operation counts. It is safe for
// concurrent use. Go has no cycle or FP-unit counters, so the kernels
// count their own work analytically and report it here.
type Counter struct {
	flops atomic.Int64
}

// Global is the process-wide counter used by instrumented kernels when no
// explicit counter is supplied.
var Global Counter

// Add records n floating-point operations.
func (c *Counter) Add(n int64) { c.flops.Add(n) }

// Total returns the total FLOP count.
func (c *Counter) Total() int64 { return c.flops.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.flops.Store(0) }
