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
// concurrent use. The three buckets mirror the paper's three BGPM
// counters: total cycles stand-ins are not tracked (Go has no cycle
// counter), but vectorized vs scalar FP operations are modelled by the
// kernels themselves: blocked/batched kernels report to Vector, naive
// loops report to Scalar.
type Counter struct {
	vector atomic.Int64 // FLOPs from blocked/batched (SIMD-friendly) kernels
	scalar atomic.Int64 // FLOPs from naive scalar loops
}

// Global is the process-wide counter used by instrumented kernels when no
// explicit counter is supplied.
var Global Counter

// AddVector records n floating-point operations executed by a
// SIMD-friendly (blocked, batched, unit-stride) kernel.
func (c *Counter) AddVector(n int64) { c.vector.Add(n) }

// AddScalar records n floating-point operations executed by a naive
// scalar loop.
func (c *Counter) AddScalar(n int64) { c.scalar.Add(n) }

// Total returns the total FLOP count.
func (c *Counter) Total() int64 { return c.vector.Load() + c.scalar.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() {
	c.vector.Store(0)
	c.scalar.Store(0)
}
