package qio

import "math"

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
