// Package analysis implements the radial distribution function g(r)
// behind the paper's §6 structure results (water around the LiAl
// particle).
package analysis

import (
	"fmt"
	"math"

	"ldcdft/internal/atoms"
)

// RDF is a radial distribution function g(r) between two species.
type RDF struct {
	RMax float64
	Bins []float64 // g(r) per bin
	N    int       // accumulated frames
}

// BinCenters returns the r value at each bin centre.
func (r *RDF) BinCenters() []float64 {
	out := make([]float64, len(r.Bins))
	dr := r.RMax / float64(len(r.Bins))
	for i := range out {
		out[i] = (float64(i) + 0.5) * dr
	}
	return out
}

// ComputeRDF accumulates g(r) between species a and b over one frame.
// Pass the same RDF to successive frames to average; allocate with
// NewRDF.
func NewRDF(rmax float64, bins int) *RDF {
	return &RDF{RMax: rmax, Bins: make([]float64, bins)}
}

// Accumulate adds one configuration to the running average.
func (r *RDF) Accumulate(sys *atoms.System, a, b *atoms.Species) error {
	if r.RMax <= 0 || len(r.Bins) == 0 {
		return fmt.Errorf("analysis: empty RDF")
	}
	if 2*r.RMax > sys.Cell.L {
		return fmt.Errorf("analysis: rmax %g exceeds half the cell %g", r.RMax, sys.Cell.L/2)
	}
	var na, nb int
	for _, at := range sys.Atoms {
		if at.Species == a {
			na++
		}
		if at.Species == b {
			nb++
		}
	}
	if na == 0 || nb == 0 {
		return fmt.Errorf("analysis: species %s/%s not present", a.Symbol, b.Symbol)
	}
	dr := r.RMax / float64(len(r.Bins))
	counts := make([]float64, len(r.Bins))
	nl := atoms.BuildNeighborList(sys, r.RMax)
	for i, at := range sys.Atoms {
		if at.Species != a {
			continue
		}
		for _, nbr := range nl.Lists[i] {
			if sys.Atoms[nbr.J].Species != b {
				continue
			}
			if a == b && nbr.J <= i {
				continue
			}
			bin := int(nbr.R / dr)
			if bin >= 0 && bin < len(counts) {
				counts[bin]++
			}
		}
	}
	// Normalize to the ideal-gas pair density.
	vol := sys.Cell.Volume()
	pairNorm := float64(na) * float64(nb) / vol
	if a == b {
		pairNorm = float64(na) * float64(na-1) / 2 / vol
	}
	for i := range counts {
		r0 := float64(i) * dr
		r1 := r0 + dr
		shell := 4 * math.Pi / 3 * (r1*r1*r1 - r0*r0*r0)
		r.Bins[i] = (r.Bins[i]*float64(r.N) + counts[i]/(pairNorm*shell)) / float64(r.N+1)
	}
	r.N++
	return nil
}

// FirstPeak returns the position and height of the first maximum of g(r)
// above the given threshold (0 → default 1.0).
func (r *RDF) FirstPeak(threshold float64) (pos, height float64) {
	if threshold == 0 {
		threshold = 1
	}
	centers := r.BinCenters()
	for i := 1; i < len(r.Bins)-1; i++ {
		if r.Bins[i] > threshold && r.Bins[i] >= r.Bins[i-1] && r.Bins[i] >= r.Bins[i+1] {
			return centers[i], r.Bins[i]
		}
	}
	return 0, 0
}
