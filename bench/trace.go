package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Times are seconds since the tracer's epoch. Parent is
// the id of the span that caused it, -1 for the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// SelfS is the span's duration minus the part of it its children
	// cover; filled in by finish.
	SelfS float64 `json:"self_s"`
}

// tracer keeps the spans of one workload run in memory. A nil tracer
// records nothing, so the untraced pass calls the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartS: start.Sub(t.epoch).Seconds(), EndS: end.Sub(t.epoch).Seconds(),
	})
	return id
}

// open records a span whose end is not known yet; close it with end.
func (t *tracer) open(parent int, name string, start time.Time) int {
	return t.add(parent, name, start, start)
}

func (t *tracer) end(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].EndS = end.Sub(t.epoch).Seconds()
	t.mu.Unlock()
}

// finish computes every span's self time and returns the spans.
// Children may overlap each other (two clients run jobs side by side),
// so the covered part is the union of the child intervals.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartS, s.EndS})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfS = (s.EndS - s.StartS) - covered(kids[s.ID])
	}
	return t.spans
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi float64
	for i, v := range iv {
		if i == 0 || v[0] > hi {
			total += v[1] - v[0]
			hi = v[1]
		} else if v[1] > hi {
			total += v[1] - hi
			hi = v[1]
		}
	}
	return total
}

// traceFile is the on-disk form of one run's spans.
type traceFile struct {
	RunID    string `json:"run_id"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// checkSpanTree reports the first way the spans fail to form a tree:
// ids dense from 0, exactly one root, each span inside its parent and
// no negative self time (beyond clock rounding).
func checkSpanTree(spans []span) error {
	const eps = 1e-6
	roots := 0
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("span %d has id %d", i, s.ID)
		}
		if s.EndS < s.StartS {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.SelfS < -eps {
			return fmt.Errorf("span %d %q has self time %g", s.ID, s.Name, s.SelfS)
		}
		if s.Parent == -1 {
			roots++
			continue
		}
		if s.Parent < 0 || s.Parent >= len(spans) {
			return fmt.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.StartS < p.StartS-eps || s.EndS > p.EndS+eps {
			return fmt.Errorf("span %d %q [%g,%g] lies outside parent %q [%g,%g]",
				s.ID, s.Name, s.StartS, s.EndS, p.Name, p.StartS, p.EndS)
		}
	}
	if roots != 1 {
		return fmt.Errorf("%d root spans, want 1", roots)
	}
	return nil
}
