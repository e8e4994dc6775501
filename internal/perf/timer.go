package perf

import (
	"sync/atomic"
	"time"
)

// Phase aggregates the wall-clock and work statistics of one named code
// region — the Go analogue of one row of the paper's BGPM phase tables
// (§4.2): call count, total/max wall-clock, and the floating-point and
// byte volume attributed to the region. All fields are atomics, so a
// Phase is safe for concurrent use from bsd.Pool workers; spans started
// on different goroutines accumulate into the same totals (the total is
// therefore a CPU-seconds-like quantity for concurrent phases, and plain
// wall-clock for serial ones).
type Phase struct {
	name   string
	calls  atomic.Int64
	busyNs atomic.Int64
	maxNs  atomic.Int64
	flops  atomic.Int64
	bytes  atomic.Int64
}

// Calls returns the number of completed spans.
func (p *Phase) Calls() int64 { return p.calls.Load() }

// Total returns the accumulated span time.
func (p *Phase) Total() time.Duration { return time.Duration(p.busyNs.Load()) }

// Max returns the longest single span.
func (p *Phase) Max() time.Duration { return time.Duration(p.maxNs.Load()) }

// Flops returns the floating-point operations attributed to the phase.
func (p *Phase) Flops() int64 { return p.flops.Load() }

// Bytes returns the I/O bytes attributed to the phase.
func (p *Phase) Bytes() int64 { return p.bytes.Load() }

// Start opens a wall-clock span on the phase. The returned Span must be
// stopped exactly once (Stop, StopFlops, or StopBytes); an unstopped span
// simply records nothing.
func (p *Phase) Start() Span {
	return Span{phase: p, start: time.Now()}
}

// StartExclusive opens a span that additionally snapshots the process-
// wide FLOP counter (Global) and attributes the delta to the phase at
// Stop. This is exact only around sections with serial boundaries — a
// stage of the SCF loop, or a bsd.Pool barrier whose entire concurrent
// interior belongs to the phase. Do not use it for a region that runs
// concurrently with unrelated kernel work: the delta would include that
// work too.
func (p *Phase) StartExclusive() Span {
	return Span{phase: p, start: time.Now(), flops0: Global.Total(), exclusive: true}
}

// record folds one completed span into the phase totals.
func (p *Phase) record(ns int64) {
	p.calls.Add(1)
	p.busyNs.Add(ns)
	for {
		cur := p.maxNs.Load()
		if ns <= cur || p.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// reset zeroes the phase counters in place, keeping the pointer (and any
// call-site caches of it) valid.
func (p *Phase) reset() {
	p.calls.Store(0)
	p.busyNs.Store(0)
	p.maxNs.Store(0)
	p.flops.Store(0)
	p.bytes.Store(0)
}

// Span is one open timing interval on a Phase. It is a plain value (no
// allocation per span) carrying the start time and, for exclusive spans,
// the Global counter snapshot.
type Span struct {
	phase     *Phase
	start     time.Time
	flops0    int64
	exclusive bool
}

// Stop closes the span, recording its wall-clock (and, for exclusive
// spans, the Global FLOP delta).
func (s Span) Stop() {
	s.phase.record(time.Since(s.start).Nanoseconds())
	if s.exclusive {
		s.phase.flops.Add(Global.Total() - s.flops0)
	}
}

// StopFlops closes the span and attributes fl floating-point operations
// to the phase (used by sites that know their operation count — the same
// modelled counts the instrumented kernels report to Global).
func (s Span) StopFlops(fl int64) {
	s.Stop()
	s.phase.flops.Add(fl)
}

// StopBytes closes the span and attributes n I/O bytes to the phase.
func (s Span) StopBytes(n int64) {
	s.Stop()
	s.phase.bytes.Add(n)
}
