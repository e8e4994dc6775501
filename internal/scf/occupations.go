// Package scf implements the self-consistent-field machinery shared by
// the O(N³) baseline and the per-domain LDC-DFT solves: Fermi–Dirac
// occupations with a Newton–Raphson chemical potential (Fig. 2, Eq. (c)),
// density mixing (linear and Anderson), and the single-cell SCF driver.
package scf

import (
	"errors"
	"math"

	"ldcdft/internal/perf"
)

// FermiOccupation returns the spin-degenerate occupation 2/(1+e^{(ε−μ)/kT}).
func FermiOccupation(eps, mu, kT float64) float64 {
	if kT <= 0 {
		if eps < mu {
			return 2
		}
		if eps == mu {
			return 1
		}
		return 0
	}
	x := (eps - mu) / kT
	if x > 40 {
		return 0
	}
	if x < -40 {
		return 2
	}
	return 2 / (1 + math.Exp(x))
}

// ErrChemicalPotential is returned when the electron-count equation has
// no solution in the searched bracket.
var ErrChemicalPotential = errors.New("scf: chemical potential search failed")

// ChemicalPotential finds μ with Σ_i f(ε_i, μ)·w_i = nelec using the
// paper's Newton–Raphson iteration (Fig. 2, Eq. (c)), safeguarded by
// bisection, to |ΔN| < 1e-10·(1+nelec). It is the one Fermi-level
// search of both drivers: eps may gather eigenvalues from ALL domains —
// μ is a global quantity that couples the local Kohn–Sham problems — and
// w_i is then each state's core weight (the partition of unity applied
// to the electron count). Nil weights count every state whole, as the
// O(N³) cell does.
func ChemicalPotential(eps, w []float64, nelec, kT float64) (float64, error) {
	if w == nil {
		w = make([]float64, len(eps))
		for i := range w {
			w[i] = 1
		}
	}
	if len(eps) == 0 || len(eps) != len(w) {
		return 0, ErrChemicalPotential
	}
	var capacity float64
	lo, hi := eps[0], eps[0]
	for i, e := range eps {
		capacity += 2 * w[i]
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	if nelec < 0 || nelec > capacity+1e-9 {
		return 0, ErrChemicalPotential
	}
	pad := 10*kT + 1
	lo -= pad
	hi += pad
	count := func(mu float64) (n, dn float64) {
		for i, e := range eps {
			f := FermiOccupation(e, mu, kT)
			n += f * w[i]
			if kT > 0 {
				// df/dμ = f(2−f)/(2kT) for the factor-2 Fermi function.
				dn += w[i] * f * (2 - f) / (2 * kT)
			}
		}
		perf.Global.Add(int64(8 * len(eps)))
		return
	}
	mu := 0.5 * (lo + hi)
	for iter := 0; iter < 200; iter++ {
		n, dn := count(mu)
		diff := n - nelec
		if math.Abs(diff) < 1e-10*(1+nelec) {
			return mu, nil
		}
		// Maintain the bisection bracket.
		if diff > 0 {
			hi = mu
		} else {
			lo = mu
		}
		// Newton step if usable, else bisect.
		if dn > 1e-14 {
			if step := mu - diff/dn; step > lo && step < hi {
				mu = step
				continue
			}
		}
		mu = 0.5 * (lo + hi)
	}
	// kT = 0 (or extremely small): accept the bisection result if the
	// bracket collapsed.
	if hi-lo < 1e-12 {
		return 0.5 * (lo + hi), nil
	}
	return 0, ErrChemicalPotential
}

// Occupations fills f_n = FermiOccupation(ε_n, μ, kT) for a band set.
func Occupations(eps []float64, mu, kT float64) []float64 {
	out := make([]float64, len(eps))
	for i, e := range eps {
		out[i] = FermiOccupation(e, mu, kT)
	}
	return out
}
