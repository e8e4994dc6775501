package pw

import (
	"ldcdft/internal/linalg"
	"ldcdft/internal/par"
)

// Density computes the valence electron density ρ(r_j) = (1/Ω) Σ_n f_n
// |ψ̃_n(r_j)|² on the FFT grid (Eq. (c) in Fig. 2, with occupations f_n
// supplied by the Fermi distribution at the global chemical potential).
// The occupied bands go to real space in one batched 3-D transform (one
// band per internal/par chunk) and the accumulation is partitioned over
// disjoint grid ranges, so no partial grids are allocated or merged and
// every point sums its bands in the same order at any processor count.
//
// Unlike the density/potential fields themselves, the ψ̃_n(G) columns
// carry no Hermitian symmetry (the orbitals are genuinely complex), so
// these transforms cannot use the r2c fast path that HartreeFFT,
// BuildLocalPseudo, LocalForces, and InitialDensity ride — they stay on
// the complex batched plan.
func Density(b *Basis, psi *linalg.CMatrix, occ []float64) []float64 {
	size := b.Grid.Size()
	rho := make([]float64, size)
	var bands []int
	for n := 0; n < psi.Cols; n++ {
		if occ[n] != 0 {
			bands = append(bands, n)
		}
	}
	if len(bands) == 0 {
		return rho
	}
	batch := b.GetBatch(len(bands) * size)
	defer b.PutBatch(batch)
	for k, n := range bands {
		b.scatterColumn(psi, n, batch[k*size:(k+1)*size])
	}
	b.sphere.InverseBatch(batch[:len(bands)*size], len(bands))
	// The raw inverse omits ToRealSpace's ×N³; fold (N³)² into the
	// |ψ̃|²/Ω prefactor instead of rescaling the whole batch.
	n3 := float64(size)
	scale := n3 * n3 / b.Volume()
	par.For(size, 512, func(lo, hi int) { // 512 points × the bands: microseconds
		for k, n := range bands {
			f := occ[n] * scale
			g := batch[k*size : (k+1)*size]
			for i := lo; i < hi; i++ {
				v := g[i]
				rho[i] += f * (real(v)*real(v) + imag(v)*imag(v))
			}
		}
	})
	return rho
}
