package pw

import (
	"ldcdft/internal/linalg"
	"ldcdft/internal/par"
	"ldcdft/internal/perf"
)

// Scratch is the caller-owned scratch of DensityInto and Box.Weights on a
// dense basis (one np×nb block and one half spectrum). It grows to the
// largest block it has served and then allocates nothing; the zero value
// is ready. One Scratch serves one goroutine.
type Scratch struct {
	blk  linalg.CMatrix // the f-scaled Ψ of the density, or CΨ of the box weights
	half []complex128
}

// block reshapes the block to rows×cols, growing its backing store only
// when it is too small.
func (s *Scratch) block(rows, cols int) *linalg.CMatrix {
	s.blk.Rows, s.blk.Cols, s.blk.Data = rows, cols, grow(s.blk.Data, rows*cols)
	return &s.blk
}

// halfSpectrum returns the half spectrum, zeroed, sized for b.
func (s *Scratch) halfSpectrum(b *Basis) []complex128 {
	s.half = grow(s.half, b.rplan.HSize())
	clear(s.half)
	return s.half
}

// grow returns buf resliced to n, reallocated only when it is too short.
func grow(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

// Density returns the valence electron density in a fresh grid; see
// DensityInto.
func Density(b *Basis, psi *linalg.CMatrix, occ []float64) []float64 {
	rho := make([]float64, b.Grid.Size())
	DensityInto(b, psi, occ, rho, new(Scratch))
	return rho
}

// DensityInto writes the valence electron density ρ(r_j) = (1/Ω) Σ_n f_n
// |ψ̃_n(r_j)|² on the FFT grid into rho (len N³) — Eq. (c) in Fig. 2,
// with occupations f_n from the Fermi distribution at the global chemical
// potential. The basis picks the path, by the rule that picks HΨ's:
//
//   - dense: the density matrix P = Ψ·diag(f)·Ψ† summed onto the half
//     spectrum of ρ by the difference table, and one real inverse
//     transform. Nothing is allocated once s has grown.
//   - FFT: every occupied band to real space by the sphere-pruned complex
//     transform, and |ψ̃|² accumulated point by point.
//
// The two are the same cyclic convolution (ψ̃_n's spectrum with its own
// conjugate reversed), aliasing included, and agree to round-off.
func DensityInto(b *Basis, psi *linalg.CMatrix, occ, rho []float64, s *Scratch) {
	if b.vdiff != nil {
		densityDense(b, psi, occ, rho, s)
		return
	}
	densityFFT(b, psi, occ, rho)
}

// densityDense is DensityInto's dense path. The half spectrum of ρ is
// R_q = Σ P_ki over the pairs with (m_k − m_i) mod N = q. A pair whose
// difference lies past the packed z half is skipped: its mirror (i, k)
// lands on the mirror bin with P_ik = conj(P_ki), which is what the real
// inverse reads for it. On the kz = 0 and kz = N/2 planes both members of
// every pair are inside the half, so those planes get both bins. Each
// P_ki is one nb-long dot of row k of the f-scaled Ψ with row i of Ψ.
func densityDense(b *Basis, psi *linalg.CMatrix, occ, rho []float64, s *Scratch) {
	np, nb := psi.Rows, psi.Cols
	fpsi := s.block(np, nb)
	for k := 0; k < np; k++ {
		prow, frow := psi.Row(k), fpsi.Row(k)
		for n, f := range occ[:nb] {
			frow[n] = complex(f*real(prow[n]), f*imag(prow[n]))
		}
	}
	half := s.halfSpectrum(b)
	var pairs int64
	for k := 0; k < np; k++ {
		frow := fpsi.Row(k)
		diffs := b.vdiff[k*np : (k+1)*np]
		for i, d := range diffs {
			if d < 0 {
				continue
			}
			var re, im float64
			for n, p := range psi.Row(i)[:len(frow)] {
				fv := frow[n]
				re += real(fv)*real(p) + imag(fv)*imag(p)
				im += imag(fv)*real(p) - real(fv)*imag(p)
			}
			half[d] += complex(re, im)
			pairs++
		}
	}
	b.rplan.Inverse(half, rho)
	scale := float64(b.Grid.Size()) / b.Volume()
	for i := range rho {
		rho[i] *= scale
	}
	perf.Global.Add(2*int64(np*nb) + 8*int64(nb)*pairs + int64(len(rho)))
}

// densityFFT is DensityInto's FFT path. The occupied bands go to real
// space in one batched transform (one band per internal/par chunk), and
// the accumulation is partitioned over disjoint grid ranges, so no
// partial grids are allocated or merged and every point sums its bands in
// the same order at any processor count. The orbitals are complex, so
// these transforms cannot take the r2c path the dense one ends with.
func densityFFT(b *Basis, psi *linalg.CMatrix, occ, rho []float64) {
	clear(rho)
	size := b.Grid.Size()
	var bands []int
	for n := 0; n < psi.Cols; n++ {
		if occ[n] != 0 {
			bands = append(bands, n)
		}
	}
	if len(bands) == 0 {
		return
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
	perf.Global.Add(4 * int64(len(bands)) * int64(size))
}

// Box is the indicator χ of a cube of the basis grid — the core of an LDC
// domain on its extended grid — and measures how much of each band lies
// inside it: w_n = ∫ χ|ψ_n|² dV = Re⟨ψ_n|χ|ψ_n⟩. On a dense basis it
// holds χ's np×np operator C = χ̂[(m_i − m_j) mod N]/N³, built once, and
// the weights of a band block are one GEMM CΨ and nb column dots; on the
// FFT path the bands go to real space and |ψ̃|² is summed over the cube.
type Box struct {
	b     *Basis
	lo, n int             // the cube [lo, lo+n)³ of grid indices
	op    *linalg.CMatrix // nil on the FFT path
}

// NewBox builds the cube [lo, lo+n)³ of b's grid.
func NewBox(b *Basis, lo, n int) *Box {
	x := &Box{b: b, lo: lo, n: n}
	if b.vdiff == nil {
		return x
	}
	edge := b.Grid.N
	chi := make([]float64, b.Grid.Size())
	for ix := lo; ix < lo+n; ix++ {
		for iy := lo; iy < lo+n; iy++ {
			base := (ix*edge + iy) * edge
			for iz := lo; iz < lo+n; iz++ {
				chi[base+iz] = 1
			}
		}
	}
	chat := make([]complex128, b.rplan.HSize())
	b.rplan.Forward(chi, chat)
	np := b.Np()
	x.op = linalg.NewCMatrix(np, np)
	b.gatherConvolution(chat, nil, x.op.Data)
	return x
}

// Weights writes w_n for every column of psi into w (len ≥ psi.Cols).
func (x *Box) Weights(psi *linalg.CMatrix, w []float64, s *Scratch) {
	np, nb := psi.Rows, psi.Cols
	w = w[:nb]
	if x.op != nil {
		cpsi := s.block(np, nb)
		linalg.CGemm(x.op, psi, cpsi)
		clear(w)
		for k := 0; k < np; k++ {
			crow := cpsi.Row(k)
			for n, p := range psi.Row(k) {
				w[n] += real(p)*real(crow[n]) + imag(p)*imag(crow[n])
			}
		}
		perf.Global.Add(4 * int64(np*nb))
		return
	}
	b := x.b
	gsz := b.Grid.Size()
	batch := b.GetBatch(nb * gsz)
	defer b.PutBatch(batch)
	b.ToRealSpaceBatch(psi, batch)
	invVol := 1 / b.Volume()
	dv := b.Grid.DV()
	edge := b.Grid.N
	for n := 0; n < nb; n++ {
		bv := batch[n*gsz : (n+1)*gsz]
		var wsum float64
		for ix := x.lo; ix < x.lo+x.n; ix++ {
			for iy := x.lo; iy < x.lo+x.n; iy++ {
				base := (ix*edge + iy) * edge
				for iz := x.lo; iz < x.lo+x.n; iz++ {
					v := bv[base+iz]
					wsum += (real(v)*real(v) + imag(v)*imag(v)) * invVol
				}
			}
		}
		w[n] = wsum * dv
	}
	perf.Global.Add(4 * int64(nb) * int64(x.n*x.n*x.n))
}
