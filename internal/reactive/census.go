package reactive

import (
	"math"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/units"
)

// Census is a topological species count over a configuration, built from
// a distance-cutoff bond graph — the analysis the paper runs on its QMD
// trajectories to count produced H₂ and track the solution pH (§6).
// The JSON names are the wire format of the serving layer's job
// results (serve.Results) and the experiment harness's cell records.
type Census struct {
	H2           int `json:"h2"`            // H–H pairs detached from oxygen and metal
	Water        int `json:"water"`         // O with exactly 2 H
	Hydroxide    int `json:"hydroxide"`     // O with exactly 1 H (OH⁻: raises pH)
	Hydronium    int `json:"hydronium"`     // O with 3 H (H₃O⁺)
	MetalH       int `json:"metal_h"`       // H bound to metal only (hydride intermediates)
	FreeH        int `json:"free_h"`        // H with no bonds
	DissolvedLi  int `json:"dissolved_li"`  // Li with no metal neighbours (dissolved into water)
	SurfaceMetal int `json:"surface_metal"` // metal atoms with under-coordinated metal shells
}

// bond cutoffs (Bohr).
var (
	cutHH = 1.05 * units.BohrPerAngstrom
	cutOH = 1.30 * units.BohrPerAngstrom
	cutMH = 2.20 * units.BohrPerAngstrom
	cutMM = 4.30 * units.BohrPerAngstrom
)

// surfaceCoordination is the metal-metal coordination below which a
// metal atom counts as surface: the B32-like packing has 6 first-shell
// plus 12 second-shell metal neighbours within the cutoff, so bulk atoms
// sit at 18 and even face atoms fall well below the threshold.
const surfaceCoordination = 13

// TakeCensus classifies every atom by its bond topology, counting bonds
// straight from the linked-cell traversal (no list is materialised). Bonds
// to hydrogen are at most cutMH long and come from a traversal at that
// range over all atoms; the much longer metal–metal shells come from a
// second one over the metal atoms alone, so the water never pays for the
// 4.3 Å cells the particle needs.
func TakeCensus(sys *atoms.System) Census {
	// bonds of one atom: oxygens (of an H), hydrogens (of an H or an O)
	// and metals (of an H) within the bond cutoffs.
	type bonds struct {
		o, h, m int32
		partner int32 // a bonded hydrogen of an H; the one if h == 1
		counted bool  // already half of a counted H₂
	}
	kind := make([]uint8, len(sys.Atoms))
	metals := &atoms.System{Cell: sys.Cell}
	for i, a := range sys.Atoms {
		if kind[i] = kindOf(a.Species); metal(kind[i]) {
			metals.Atoms = append(metals.Atoms, a)
		}
	}
	bond := make([]bonds, len(sys.Atoms))
	atoms.VisitPairs(sys, cutMH+0.1, func(i, j int, _ geom.Vec3, r2 float64) {
		r, b := math.Sqrt(r2), &bond[i]
		switch ki, kj := kind[i], kind[j]; {
		case ki == kindH && kj == kindH && r < cutHH:
			b.h++
			b.partner = int32(j)
		case ki == kindH && kj == kindO && r < cutOH:
			b.o++
		case ki == kindO && kj == kindH && r < cutOH:
			b.h++
		case ki == kindH && metal(kj) && r < cutMH:
			b.m++
		}
	})
	shell := make([]int, len(metals.Atoms)) // metal neighbours of each metal
	atoms.VisitPairs(metals, cutMM+0.1, func(i, _ int, _ geom.Vec3, r2 float64) {
		if math.Sqrt(r2) < cutMM {
			shell[i]++
		}
	})
	var c Census
	for i := range bond {
		b := &bond[i]
		switch kind[i] {
		case kindH:
			switch {
			case b.h == 1 && b.o == 0 && !b.counted:
				if p := &bond[b.partner]; p.h == 1 && p.partner == int32(i) && p.o == 0 {
					c.H2++
					b.counted, p.counted = true, true
				}
			case b.o == 0 && b.h == 0 && b.m > 0:
				c.MetalH++
			case b.o == 0 && b.h == 0 && b.m == 0:
				c.FreeH++
			}
		case kindO:
			switch b.h {
			case 1:
				c.Hydroxide++
			case 2:
				c.Water++
			case 3:
				c.Hydronium++
			}
		}
	}
	for k, a := range metals.Atoms {
		if a.Species == atoms.Lithium && shell[k] == 0 {
			c.DissolvedLi++
		}
		if shell[k] > 0 && shell[k] < surfaceCoordination {
			c.SurfaceMetal++
		}
	}
	return c
}

// PHProxy returns a pH-like indicator: log10 of the hydroxide-to-
// hydronium imbalance relative to neutral. Positive values mean basic
// solution — the paper validates against the observed pH increase during
// H₂ production (§5.5, §6).
func (c Census) PHProxy() float64 {
	// Avoid log(0): add-one smoothing on both counts.
	return math.Log10(float64(c.Hydroxide+1)) - math.Log10(float64(c.Hydronium+1))
}

// SurfaceAtoms counts the surface metal atoms N_surf used to normalize
// the H₂ production rate in Fig. 9(b).
func SurfaceAtoms(sys *atoms.System) int {
	return TakeCensus(sys).SurfaceMetal
}

// ArrheniusFit fits rate = A·exp(−Ea/kT) to (temperature, rate) samples
// by linear regression of ln(rate) on 1/kT, returning the activation
// energy Ea (Hartree) and prefactor A. Rates must be positive.
func ArrheniusFit(tempsK, rates []float64) (ea, prefactor float64) {
	nPts := 0
	var sx, sy, sxx, sxy float64
	for i, t := range tempsK {
		if rates[i] <= 0 || t <= 0 {
			continue
		}
		x := -1 / units.KelvinToHartree(t) // −1/kT
		y := math.Log(rates[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		nPts++
	}
	if nPts < 2 {
		return 0, 0
	}
	fn := float64(nPts)
	slope := (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
	intercept := (sy - slope*sx) / fn
	return slope, math.Exp(intercept)
}
