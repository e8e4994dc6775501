package pw

import (
	"fmt"
	"math"
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
	Iterations  int
	MaxResidual float64
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

// expandFullApply forces the pre-optimization expansion path that
// re-applies H to the full expanded block [Ψ, R] instead of reusing HΨ
// for the retained columns. Kept (unexported) so tests can verify the
// reuse path reproduces the seed path's eigenvalues.
var expandFullApply = false

// eigenFlops models linalg.HermitianEigen on an n×n matrix in real
// operations: Householder tridiagonalisation 16n³/3 (a Hermitian
// matrix-vector product and a rank-2 update per reflector), accumulating
// Q another 16n³/3, QL ≈ 6n³ (about two sweeps per eigenvalue, 6n per
// rotation on the real Z) and the complex × real back-transform 4n³.
func eigenFlops(n int) int64 {
	return 21 * int64(n) * int64(n) * int64(n)
}

// SolveAllBand diagonalizes H for the nb lowest states using the blocked
// (all-band) algorithm of §3.4: every iteration applies H to the whole
// packed Ψ matrix, performs a Rayleigh–Ritz rotation, and expands the
// subspace with preconditioned residuals — all expressed as BLAS3 matrix
// products. psi is the starting guess (orthonormal columns) and is
// updated in place; iters is the number of expansion steps (the paper's
// "CG iterations per SCF", §5.1 uses 3).
func SolveAllBand(h *Hamiltonian, psi *linalg.CMatrix, iters int) (EigenResult, error) {
	nb := psi.Cols
	np := psi.Rows
	var res EigenResult
	hpsi := h.ApplyAll(psi)
	res.Flops += h.applyAllFlops(nb)
	for it := 0; it < iters; it++ {
		// Rayleigh–Ritz in the current span.
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

		// Preconditioned residual block R = K(HΨ − Ψ diag(w)). Columns
		// whose residual has effectively vanished (converged bands) are
		// dropped from the expansion set: keeping them would make the
		// expanded overlap matrix numerically singular.
		var keep [][]complex128
		var keepNorm []float64
		col := make([]complex128, np)
		hcol := make([]complex128, np)
		res.MaxResidual = 0
		for n := 0; n < nb; n++ {
			psi.Col(n, col)
			hpsi.Col(n, hcol)
			ke := h.KineticExpectation(col)
			for i := range hcol {
				hcol[i] -= complex(w[n], 0) * col[i]
			}
			rn := linalg.CNorm2(hcol)
			if rn > res.MaxResidual {
				res.MaxResidual = rn
			}
			if rn < 1e-9 {
				continue
			}
			teterPrecondition(h.Basis, hcol, ke)
			if pn := linalg.CNorm2(hcol); pn > 0 {
				linalg.CScale(complex(1/pn, 0), hcol)
			}
			keep = append(keep, append([]complex128(nil), hcol...))
			keepNorm = append(keepNorm, rn)
		}
		// V = [Ψ, R_kept] must fit in the np-dimensional space: asking
		// for more orthonormal columns than that slips through Cholesky
		// on round-off and returns a V that is not orthonormal. The
		// smallest residuals go first; with np == nb nothing is left and
		// the Rayleigh–Ritz above was already exact.
		for len(keep) > np-nb {
			k := 0
			for j, rn := range keepNorm {
				if rn < keepNorm[k] {
					k = j
				}
			}
			keep = slices.Delete(keep, k, k+1)
			keepNorm = slices.Delete(keepNorm, k, k+1)
		}
		res.Iterations = it + 1
		if res.MaxResidual < 1e-10 || len(keep) == 0 {
			break
		}

		// Expand: V = [Ψ, R_kept], orthonormalize, Rayleigh–Ritz in the
		// expanded space, keep the lowest nb states.
		v, hv, applyFl, err := expandSubspace(h, psi, hpsi, keep)
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
		res.Flops += orthoFlops(np, nv) + applyFl +
			8*int64(np)*int64(nv)*int64(nv) + eigenFlops(nv) +
			16*int64(np)*int64(nv)*int64(nb)
		res.Eigenvalues = w2[:nb]
	}
	return res, nil
}

// expandSubspace returns an orthonormal basis V of span[Ψ, R] (R the
// columns in keep), HV, and the modelled flops of the Hamiltonian applies.
//
// HΨ reuse: while Ψ's columns are orthonormal, the Cholesky factor of the
// expanded overlap has an identity leading block and Ψ L^{-†} leaves the
// first nb columns unchanged — HV for those columns IS the hpsi block
// already in hand. H is then applied only to the orthonormalized residual
// columns, roughly halving the Hamiltonian work of every expansion step.
// That is checked, not assumed: once Ψ has lost orthonormality the leading
// block moves, pairing it with hpsi would hand the Rayleigh–Ritz step a
// matrix that is not Hermitian, and the full block is re-applied instead —
// as it is when the Cholesky route fails (residuals nearly dependent on Ψ)
// and the Gram–Schmidt fallback rebuilds all columns.
func expandSubspace(h *Hamiltonian, psi, hpsi *linalg.CMatrix, keep [][]complex128) (v, hv *linalg.CMatrix, applyFlops int64, err error) {
	np, nb := psi.Rows, psi.Cols
	nv := nb + len(keep)
	v = linalg.NewCMatrix(np, nv)
	for i := 0; i < np; i++ {
		copy(v.Row(i)[:nb], psi.Row(i))
		for k, rcol := range keep {
			v.Row(i)[nb+k] = rcol[i]
		}
	}
	reuse := !expandFullApply
	if err := Orthonormalize(v); err != nil {
		if err := gramSchmidt(v); err != nil {
			return nil, nil, 0, err
		}
		reuse = false
	}
	for i := 0; reuse && i < np; i++ {
		for j, p := range psi.Row(i) {
			if d := v.Row(i)[j] - p; math.Abs(real(d)) > 1e-10 || math.Abs(imag(d)) > 1e-10 {
				reuse = false
				break
			}
		}
	}
	if !reuse {
		return v, h.ApplyAll(v), h.applyAllFlops(nv), nil
	}
	r := linalg.NewCMatrix(np, len(keep))
	for i := 0; i < np; i++ {
		copy(r.Row(i), v.Row(i)[nb:])
	}
	hr := h.ApplyAll(r)
	hv = linalg.NewCMatrix(np, nv)
	for i := 0; i < np; i++ {
		copy(hv.Row(i)[:nb], hpsi.Row(i))
		copy(hv.Row(i)[nb:], hr.Row(i))
	}
	return v, hv, h.applyAllFlops(len(keep)), nil
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
