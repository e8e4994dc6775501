package perf

import (
	"sort"
	"sync"
	"time"
)

// Registry is a process-wide collection of named Phases — the aggregation
// point that turns per-site timers and the FLOP Counter into the per-phase
// FLOP/s tables of §4.2. Phase pointers returned by Phase are stable for
// the life of the registry (call sites cache them in package variables),
// and Reset zeroes counters in place without invalidating them.
type Registry struct {
	mu     sync.RWMutex
	phases map[string]*Phase
	epoch  time.Time
}

// NewRegistry returns an empty registry with the epoch set to now.
func NewRegistry() *Registry {
	return &Registry{phases: make(map[string]*Phase), epoch: time.Now()}
}

// Default is the process-wide registry used by the instrumented layers
// (core, scf, pw, fft, multigrid, md, qio), mirroring the role of the
// Global FLOP counter.
var Default = NewRegistry()

// GetPhase returns (creating if needed) the named phase of the Default
// registry. Instrumented packages cache the result in a package variable
// so the per-span cost is two time.Now calls and a few atomic adds.
func GetPhase(name string) *Phase { return Default.Phase(name) }

// Phase returns the named phase, creating it on first use.
func (r *Registry) Phase(name string) *Phase {
	r.mu.RLock()
	p := r.phases[name]
	r.mu.RUnlock()
	if p != nil {
		return p
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p = r.phases[name]; p == nil {
		p = &Phase{name: name}
		r.phases[name] = p
	}
	return p
}

// Reset zeroes every phase in place and restarts the wall-clock epoch.
// Cached *Phase pointers remain valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.phases {
		p.reset()
	}
	r.epoch = time.Now()
}

// Wall returns the elapsed wall-clock since the last Reset (or creation).
func (r *Registry) Wall() time.Duration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return time.Since(r.epoch)
}

// PhaseStats is one immutable row of a registry snapshot. The JSON tags
// are the wire format of both -perf-json reports and the serving layer's
// job/metrics endpoints.
type PhaseStats struct {
	Name  string        `json:"name"`
	Calls int64         `json:"calls"`
	Total time.Duration `json:"total_ns"`
	Mean  time.Duration `json:"mean_ns"`
	Max   time.Duration `json:"max_ns"`
	Flops int64         `json:"flops"`
	Bytes int64         `json:"bytes"`
	// GFlops is the measured FLOP rate (GFlopsPerSec), precomputed so the
	// serialized row carries it without the consumer re-deriving it.
	GFlops float64 `json:"gflops_per_sec"`
}

// GFlopsPerSec returns the measured FLOP rate of the phase, or 0 when no
// FLOPs (or no time) were recorded.
func (s PhaseStats) GFlopsPerSec() float64 {
	if s.Flops == 0 || s.Total <= 0 {
		return 0
	}
	return float64(s.Flops) / s.Total.Seconds() / 1e9
}

// MBPerSec returns the measured byte throughput of the phase, or 0.
func (s PhaseStats) MBPerSec() float64 {
	if s.Bytes == 0 || s.Total <= 0 {
		return 0
	}
	return float64(s.Bytes) / s.Total.Seconds() / 1e6
}

// Report is a complete structured export of a registry: the wall-clock
// since the last Reset plus every active phase's stats. It is the single
// source for all registry renderings — WriteText, WriteJSON (-perf-json),
// and WritePrometheus (the serving layer's /metrics endpoint) — and what
// the bench/ module stores per run.
type Report struct {
	Wall   time.Duration `json:"wall_ns"`
	Phases []PhaseStats  `json:"phases"`
}

// Export captures the registry as an immutable Report.
func (r *Registry) Export() Report {
	return Report{Wall: r.Wall(), Phases: r.Snapshot()}
}

// Snapshot returns the stats of every phase with at least one completed
// span, sorted by total time descending (name as tiebreaker) — hottest
// phase first, like the paper's profile tables.
func (r *Registry) Snapshot() []PhaseStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]PhaseStats, 0, len(r.phases))
	for _, p := range r.phases {
		calls := p.Calls()
		if calls == 0 {
			continue
		}
		st := PhaseStats{
			Name:  p.name,
			Calls: calls,
			Total: p.Total(),
			Max:   p.Max(),
			Flops: p.Flops(),
			Bytes: p.Bytes(),
		}
		st.Mean = st.Total / time.Duration(calls)
		st.GFlops = st.GFlopsPerSec()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}
