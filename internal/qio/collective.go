package qio

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"

	"ldcdft/internal/par"
	"ldcdft/internal/perf"
)

var phCollectiveWrite = perf.GetPhase("qio/collective-write")

// CollectiveWriter aggregates the per-rank payloads of a process group
// through group masters before touching storage — the aggregated I/O
// scheme of §4.2 in which only one of every GroupSize MPI processes
// accesses disk while the rest forward their data to it.
type CollectiveWriter struct {
	GroupSize int
	W         io.Writer
	mu        sync.Mutex
}

// NewCollectiveWriter wraps w with aggregation groups of the given size
// (the paper's optimum is 192 ranks per group).
func NewCollectiveWriter(w io.Writer, groupSize int) (*CollectiveWriter, error) {
	if groupSize < 1 {
		return nil, fmt.Errorf("qio: invalid group size %d", groupSize)
	}
	return &CollectiveWriter{GroupSize: groupSize, W: w}, nil
}

// WriteAll gathers the payloads of all ranks: each group's master
// concatenates its members' blocks (concurrently across groups, on the
// internal/par pool, so thousands of groups need no goroutine each) and
// the masters then write in rank order. It returns the bytes written. A
// writer accepting fewer bytes than offered is reported as an
// io.ErrShortWrite-wrapping error for the offending group.
func (c *CollectiveWriter) WriteAll(rankPayloads [][]byte) (int64, error) {
	ngroups := (len(rankPayloads) + c.GroupSize - 1) / c.GroupSize
	// out is index-assigned by group number and therefore already in rank
	// order once par.For returns; no sort is needed.
	out := make([][]byte, ngroups)
	par.For(ngroups, 1, func(g, _ int) {
		out[g] = bytes.Join(rankPayloads[g*c.GroupSize:min((g+1)*c.GroupSize, len(rankPayloads))], nil)
	})
	var n int64
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := phCollectiveWrite.Start()
	for g, data := range out {
		k, err := c.W.Write(data)
		n += int64(k)
		if err == nil && k < len(data) {
			err = io.ErrShortWrite
		}
		if err != nil {
			sp.StopBytes(n)
			return n, fmt.Errorf("qio: group %d write: %w", g, err)
		}
	}
	sp.StopBytes(n)
	return n, nil
}

// IOModel is the calibrated cost model for collective I/O on the Blue
// Gene/Q GPFS configuration: too many groups serializes metadata on the
// I/O servers, too few groups serializes the intra-group gather. The
// optimum lands near the paper's 192 ranks per group.
type IOModel struct {
	Servers    int     // parallel I/O servers
	MetaSec    float64 // per-file metadata cost (create/close)
	GatherSec  float64 // per-rank aggregation cost inside a group
	BandwidthB float64 // aggregate storage bandwidth (bytes/s)
}

// DefaultIOModel returns constants calibrated so that, for the 786,432-
// rank production run, the optimal group size is ≈192 and a checkpoint
// write costs ≈99 s (§4.2).
func DefaultIOModel() IOModel {
	return IOModel{
		Servers:    128,
		MetaSec:    0.015,
		GatherSec:  0.0025,
		BandwidthB: 4e9,
	}
}

// WriteTime models writing totalBytes from ranks with the given group
// size.
func (m IOModel) WriteTime(ranks int, groupSize int, totalBytes float64) float64 {
	if groupSize < 1 {
		groupSize = 1
	}
	ngroups := math.Ceil(float64(ranks) / float64(groupSize))
	meta := m.MetaSec * ngroups / float64(m.Servers)
	gather := m.GatherSec * float64(groupSize)
	stream := totalBytes / m.BandwidthB
	return meta + gather + stream
}

// OptimalGroupSize scans group sizes and returns the minimizer of
// WriteTime.
func (m IOModel) OptimalGroupSize(ranks int, totalBytes float64) int {
	best, bestT := 1, math.Inf(1)
	for g := 1; g <= ranks; g *= 2 {
		for _, gs := range []int{g, g + g/2} {
			if gs < 1 || gs > ranks {
				continue
			}
			if t := m.WriteTime(ranks, gs, totalBytes); t < bestT {
				best, bestT = gs, t
			}
		}
	}
	// Refine around the best power of two.
	for gs := best / 2; gs <= best*2 && gs <= ranks; gs += max(best/16, 1) {
		if gs < 1 {
			continue
		}
		if t := m.WriteTime(ranks, gs, totalBytes); t < bestT {
			best, bestT = gs, t
		}
	}
	return best
}
