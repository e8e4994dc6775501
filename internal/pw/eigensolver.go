package pw

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"slices"

	"ldcdft/internal/linalg"
)

// Orthonormalize makes the columns of Ψ orthonormal via the overlap-
// matrix route of §3.3: S = Ψ†Ψ (reciprocal-space decomposed GEMM),
// Cholesky S = L L†, then Ψ ← Ψ L^{-†}.
func Orthonormalize(psi *linalg.CMatrix) error {
	defer phOrtho.Start().StopFlops(orthoFlops(psi.Rows, psi.Cols))
	s := linalg.CGemmCT(psi, psi)
	l, err := linalg.CholeskyHermitian(s)
	if err != nil {
		return fmt.Errorf("pw: overlap matrix not positive definite (linearly dependent bands): %w", err)
	}
	linv := linalg.InvLowerC(l)
	// Ψ L^{-†}: (L^{-†})_{kj} = conj(L^{-1}_{jk}).
	linvH := linalg.NewCMatrix(linv.Cols, linv.Rows)
	for i := 0; i < linv.Rows; i++ {
		for j := 0; j < linv.Cols; j++ {
			linvH.Set(j, i, cmplx.Conj(linv.At(i, j)))
		}
	}
	out := linalg.NewCMatrix(psi.Rows, psi.Cols)
	linalg.CGemm(psi, linvH, out)
	copy(psi.Data, out.Data)
	return nil
}

// RandomOrbitals returns an orthonormalized random starting guess of nb
// bands over basis b, biased toward low-|G| plane waves (smooth states).
func RandomOrbitals(b *Basis, nb int, rng *rand.Rand) (*linalg.CMatrix, error) {
	if nb > b.Np() {
		return nil, fmt.Errorf("pw: %d bands exceed basis size %d", nb, b.Np())
	}
	psi := linalg.NewCMatrix(b.Np(), nb)
	for n := 0; n < nb; n++ {
		for i, g2 := range b.G2 {
			w := 1 / (1 + g2*g2)
			psi.Set(i, n, complex(w*rng.NormFloat64(), w*rng.NormFloat64()))
		}
	}
	if err := Orthonormalize(psi); err != nil {
		return nil, err
	}
	return psi, nil
}

// EigenResult carries the converged states of one diagonalization.
type EigenResult struct {
	Eigenvalues []float64
	Iterations  int     // expansions run: at most the iters asked for
	MaxResidual float64 // largest ‖Hψ_n − ε_nψ_n‖ of the returned pairs
	// Flops is the modelled operation count of this diagonalization,
	// accumulated from the kernels it invoked (Hamiltonian applies,
	// subspace GEMMs, orthonormalizations). Callers attribute it to their
	// timing phase (scf/eigensolver).
	Flops int64
}

// teterPrecondition applies the Teter–Payne–Allan kinetic preconditioner
// in place: r_G ← K(x) r_G with x = ½G²/ke and
// K = (27+18x+12x²+8x³)/(27+18x+12x²+8x³+16x⁴).
func teterPrecondition(b *Basis, r []complex128, ke float64) {
	if ke <= 0 {
		ke = 1
	}
	for i, g2 := range b.G2 {
		x := g2 / 2 / ke
		num := 27 + x*(18+x*(12+8*x))
		r[i] *= complex(num/(num+16*x*x*x*x), 0)
	}
}

// eigenFlops models linalg.HermitianEigen on an n×n matrix in real
// operations: Householder tridiagonalisation 16n³/3 (a Hermitian
// matrix-vector product and a rank-2 update per reflector), accumulating
// Q another 16n³/3, QL ≈ 6n³ (about two sweeps per eigenvalue, 6n per
// rotation on the real Z) and the complex × real back-transform 4n³.
func eigenFlops(n int) int64 {
	return 21 * int64(n) * int64(n) * int64(n)
}

// SolveAllBand diagonalizes H for the nb lowest states using the blocked
// (all-band) algorithm of §3.4, every step a BLAS3 matrix product: one
// Rayleigh–Ritz rotation of the starting span, then per iteration the
// preconditioned residual block, the expansion [Ψ, R] and a Rayleigh–Ritz
// in the expanded space that keeps the lowest nb Ritz pairs. Those pairs
// are already rotated — Ψ†HΨ = diag(ε) — so the next iteration takes its
// residuals from them directly. psi is the starting guess and is updated
// in place; iters caps the expansion steps (the paper's "CG iterations
// per SCF", §5.1 uses 3).
//
// tol is the residual ‖Hψ_n − ε_nψ_n‖ the caller needs. A band below
// max(1e-9, tol) leaves the expansion block, and the loop stops when no
// band is left in it. tol = 0 refines every band to round-off or until
// the iters cap.
//
// Ψ must stay orthonormal for the expansion to reuse HΨ. That is checked
// once here: a starting Ψ whose overlap is off the identity by more than
// 1e-10 is orthonormalized first. From then on each new Ψ is an
// orthonormal V times orthonormal Ritz vectors.
func SolveAllBand(h *Hamiltonian, psi *linalg.CMatrix, iters int, tol float64) (EigenResult, error) {
	nb := psi.Cols
	np := psi.Rows
	var res EigenResult
	res.Flops += 8 * int64(np) * int64(nb) * int64(nb)
	if orthonormalityDefect(psi) > 1e-10 {
		if err := Orthonormalize(psi); err != nil {
			return res, err
		}
		res.Flops += orthoFlops(np, nb)
	}
	hpsi := h.ApplyAll(psi)
	res.Flops += h.applyAllFlops(nb)

	// Rayleigh–Ritz in the starting span.
	hsub := linalg.CGemmCT(psi, hpsi)
	w, u, err := linalg.HermitianEigen(hsub)
	if err != nil {
		return res, err
	}
	rot := linalg.NewCMatrix(np, nb)
	linalg.CGemm(psi, u, rot)
	copy(psi.Data, rot.Data)
	linalg.CGemm(hpsi, u, rot)
	copy(hpsi.Data, rot.Data)
	res.Flops += 24*int64(np)*int64(nb)*int64(nb) + eigenFlops(nb)
	res.Eigenvalues = w

	col := make([]complex128, np)
	hcol := make([]complex128, np)
	// residual leaves ψ_n in col and r_n = Hψ_n − ε_n ψ_n in hcol and
	// returns ‖r_n‖.
	residual := func(n int) float64 {
		psi.Col(n, col)
		hpsi.Col(n, hcol)
		for i := range hcol {
			hcol[i] -= complex(w[n], 0) * col[i]
		}
		return linalg.CNorm2(hcol)
	}
	norms := make([]float64, nb)
	kept := make([]int, 0, nb)
	dropBelow := max(1e-9, tol)
	expanded := false
	for it := 0; it < iters; it++ {
		// The bands below dropBelow are dropped from the expansion set:
		// the caller does not need them refined, and a residual that has
		// effectively vanished would make the expanded overlap matrix
		// numerically singular.
		res.MaxResidual = 0
		expanded = false
		kept = kept[:0]
		for n := 0; n < nb; n++ {
			norms[n] = residual(n)
			res.MaxResidual = max(res.MaxResidual, norms[n])
			if norms[n] < dropBelow {
				continue
			}
			kept = append(kept, n)
		}
		// V = [Ψ, R_kept] must fit in the np-dimensional space: asking
		// for more orthonormal columns than that slips through Cholesky
		// on round-off and returns a V that is not orthonormal. The
		// smallest residuals go first; with np == nb nothing is left and
		// the Rayleigh–Ritz above was already exact.
		for len(kept) > np-nb {
			k := 0
			for j, n := range kept {
				if norms[n] < norms[kept[k]] {
					k = j
				}
			}
			kept = slices.Delete(kept, k, k+1)
		}
		if len(kept) == 0 {
			break
		}

		// Preconditioned residual block R = K(HΨ − Ψ diag(w)) of the kept
		// bands, each column normalized. The residuals are recomputed,
		// bit for bit those measured above, rather than kept per band.
		r := linalg.NewCMatrix(np, len(kept))
		for k, n := range kept {
			residual(n)
			teterPrecondition(h.Basis, hcol, h.KineticExpectation(col))
			if pn := linalg.CNorm2(hcol); pn > 0 {
				linalg.CScale(complex(1/pn, 0), hcol)
			}
			r.SetCol(k, hcol)
		}

		// Expand: V = [Ψ, R_kept] orthonormal, Rayleigh–Ritz in the
		// expanded space, keep the lowest nb states.
		v, hv, expandFl, err := expandSubspace(h, psi, hpsi, r)
		if err != nil {
			return res, err
		}
		nv := v.Cols
		hsub2 := linalg.CGemmCT(v, hv)
		w2, u2, err := linalg.HermitianEigen(hsub2)
		if err != nil {
			return res, err
		}
		// Lowest nb columns of U2 rotate V into the new Ψ.
		usel := linalg.NewCMatrix(nv, nb)
		for i := 0; i < nv; i++ {
			copy(usel.Row(i), u2.Row(i)[:nb])
		}
		linalg.CGemm(v, usel, psi)
		linalg.CGemm(hv, usel, hpsi)
		res.Flops += expandFl + 8*int64(np)*int64(nv)*int64(nv) + eigenFlops(nv) +
			16*int64(np)*int64(nv)*int64(nb)
		w = w2[:nb]
		res.Eigenvalues = w
		res.Iterations++
		expanded = true
	}
	// After an expansion the residuals above belong to the previous Ψ:
	// report those of the pairs returned.
	if expanded {
		res.MaxResidual = 0
		for n := 0; n < nb; n++ {
			res.MaxResidual = max(res.MaxResidual, residual(n))
		}
	}
	return res, nil
}

// orthonormalityDefect returns max|Ψ†Ψ − I|.
func orthonormalityDefect(psi *linalg.CMatrix) float64 {
	s := linalg.CGemmCT(psi, psi)
	var d float64
	for i := 0; i < s.Rows; i++ {
		for j, v := range s.Row(i) {
			if i == j {
				v--
			}
			d = max(d, cmplx.Abs(v))
		}
	}
	return d
}

// expandSubspace returns an orthonormal basis V = [Ψ, Q] of span[Ψ, R]
// (R an np×nk block, overwritten; Ψ orthonormal), HV, and the modelled
// flops of the orthonormalization and the Hamiltonian applies.
//
// R is orthogonalized against Ψ, R ← R − Ψ(Ψ†R), and only its nk columns
// are Cholesky-orthonormalized — the same factorization as Cholesky-QR of
// all of [Ψ, R], whose leading block is the identity while Ψ is
// orthonormal (L₂₁ = R†Ψ, L₂₂ = chol(R†R − R†ΨΨ†R)). The leading block
// of V is then Ψ itself, so HV = [HΨ, HQ] and H is applied to the new
// columns alone. When the projected residuals are numerically dependent
// on Ψ, [Ψ, R] is orthonormalized as a whole instead (Gram–Schmidt if
// Cholesky fails there too) and H is applied to all of V.
func expandSubspace(h *Hamiltonian, psi, hpsi, r *linalg.CMatrix) (v, hv *linalg.CMatrix, flops int64, err error) {
	np, nb, nk := psi.Rows, psi.Cols, r.Cols
	nv := nb + nk
	v = linalg.NewCMatrix(np, nv)
	for i := 0; i < np; i++ {
		copy(v.Row(i)[:nb], psi.Row(i))
		copy(v.Row(i)[nb:], r.Row(i))
	}
	proj := linalg.NewCMatrix(np, nk)
	linalg.CGemm(psi, linalg.CGemmCT(psi, r), proj)
	for i, p := range proj.Data {
		r.Data[i] -= p
	}
	flops = 16*int64(np)*int64(nb)*int64(nk) + orthoFlops(np, nk)
	if err := Orthonormalize(r); err != nil {
		if err := Orthonormalize(v); err != nil {
			if err := gramSchmidt(v); err != nil {
				return nil, nil, 0, err
			}
		}
		return v, h.ApplyAll(v), flops + orthoFlops(np, nv) + h.applyAllFlops(nv), nil
	}
	hr := h.ApplyAll(r)
	hv = linalg.NewCMatrix(np, nv)
	for i := 0; i < np; i++ {
		copy(v.Row(i)[nb:], r.Row(i))
		copy(hv.Row(i)[:nb], hpsi.Row(i))
		copy(hv.Row(i)[nb:], hr.Row(i))
	}
	return v, hv, flops + h.applyAllFlops(nk), nil
}

// gramSchmidt is the fallback orthonormalization: modified Gram–Schmidt
// with re-orthogonalization; replaces numerically dependent columns with
// fresh noise.
func gramSchmidt(v *linalg.CMatrix) error {
	np, nc := v.Rows, v.Cols
	rng := rand.New(rand.NewSource(12345))
	col := make([]complex128, np)
	prev := make([]complex128, np)
	for j := 0; j < nc; j++ {
		v.Col(j, col)
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < j; k++ {
				v.Col(k, prev)
				c := linalg.CDot(prev, col)
				linalg.CAxpy(-c, prev, col)
			}
		}
		n := linalg.CNorm2(col)
		if n < 1e-10 {
			for i := range col {
				col[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			for k := 0; k < j; k++ {
				v.Col(k, prev)
				c := linalg.CDot(prev, col)
				linalg.CAxpy(-c, prev, col)
			}
			n = linalg.CNorm2(col)
			if n == 0 {
				return fmt.Errorf("pw: cannot orthonormalize column %d", j)
			}
		}
		linalg.CScale(complex(1/n, 0), col)
		v.SetCol(j, col)
	}
	return nil
}
