// Package dc implements the divide-and-conquer layer of LDC-DFT: the
// complexity analysis of §3.1 (optimal domain size, O(N³) crossover) and
// the assignment of atoms to overlapping domains Ωα = Ω0α ∪ Γα.
package dc

import (
	"errors"
	"math"
)

// OptimalCoreLength returns l* = 2b/(ν−1) (§3.1), the minimizer of the
// cost model Tcomp(l) = (L/l)³ (l+2b)^{3ν} of a cubic system of side L
// tiled by domains of core length l and buffer thickness b, with
// per-domain DFT cost ∝ (domain edge)^{3ν}: 2b for the ν = 2 regime of
// typical domain sizes, b in the asymptotic ν = 3
// (orthonormalization-dominated) limit.
func OptimalCoreLength(b, nu float64) float64 {
	if nu <= 1 {
		return math.Inf(1) // cost decreases monotonically with l
	}
	return 2 * b / (nu - 1)
}

// ErrNoCrossover is returned when the DC cost never beats the O(N³) cost
// in the searched range.
var ErrNoCrossover = errors.New("dc: no crossover found")

// CrossoverLength returns the system size L above which DC-DFT at the
// optimal domain size is cheaper than conventional DFT:
// Tcomp(l*) = L^{3ν}. For ν = 2 this is analytic: L = 8b (§5.2).
func CrossoverLength(b, nu float64) (float64, error) {
	if nu <= 1 {
		return 0, ErrNoCrossover
	}
	l := OptimalCoreLength(b, nu)
	// Tcomp(l*) = (L/l*)³ (l*+2b)^{3ν} = L³ · C with
	// C = (l*+2b)^{3ν} / l*³, so the crossover satisfies
	// L^{3ν−3} = C → L = C^{1/(3ν−3)}.
	c := math.Pow(l+2*b, 3*nu) / (l * l * l)
	return math.Pow(c, 1/(3*nu-3)), nil
}

// CrossoverAtoms converts a crossover length to an atom count given the
// reference system's atom count and cell length (e.g. 512-atom CdSe in a
// 45.664 a.u. box, §5.2).
func CrossoverAtoms(b, nu float64, refAtoms float64, refLength float64) (float64, error) {
	L, err := CrossoverLength(b, nu)
	if err != nil {
		return 0, err
	}
	r := L / refLength
	return refAtoms * r * r * r, nil
}

// Speedup returns the LDC-over-DC cost ratio of §5.2 for a fixed core
// length l when the buffer can shrink from bDC to bLDC at equal accuracy:
//
//	[(l+2·bDC)/(l+2·bLDC)]^{3ν}
func Speedup(l, bDC, bLDC, nu float64) float64 {
	return math.Pow((l+2*bDC)/(l+2*bLDC), 3*nu)
}
