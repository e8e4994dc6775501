package linalg

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrNoConvergence is returned when the QL iteration of HermitianEigen
// exceeds its iteration budget.
var ErrNoConvergence = errors.New("linalg: eigensolver failed to converge")

// ErrNotHermitian is returned by HermitianEigen for input that has a
// non-finite entry or is not Hermitian to 1e-8 of its largest entry.
var ErrNotHermitian = errors.New("linalg: matrix is not finite and Hermitian")

const (
	// hermitianTol bounds max|a_ij − conj(a_ji)| relative to max|a_ij|.
	// Round-off in Ψ†HΨ is ~1e-14; 1e-8 is far above that and far below
	// the 0.1 defect of a subspace matrix built from mismatched Ψ and HΨ.
	hermitianTol = 1e-8
	// maxQLIter is the implicit-shift QL budget per eigenvalue; ~2 are
	// needed in practice.
	maxQLIter = 30
	epsilon   = 0x1p-52 // float64 machine epsilon
	// negligible is the absolute floor, on the unit-scaled matrix, below
	// which an off-diagonal norm is taken as zero: it moves no eigenvalue
	// by more than ε²‖A‖ and keeps denormals out of 1/h and the rotations.
	negligible = epsilon * epsilon
)

// HermitianEigen computes all eigenvalues (ascending) and an orthonormal
// set of eigenvectors (columns of the returned CMatrix) of a Hermitian
// matrix — the N_band × N_band Rayleigh–Ritz matrices of §3.3 — by the
// direct method: Householder reflectors reduce A to Hermitian tridiagonal
// form T = Q†AQ, a diagonal phase matrix D makes the sub-diagonal real,
// implicit-shift QL with deflation diagonalises the real symmetric
// tridiagonal D†TD = ZΛZᵀ with the rotations accumulated in a real Z, and
// one complex × real product gives the eigenvectors U = Q·D·Z. That is
// O(n³) once, where the cyclic Jacobi it replaced paid O(n³) per sweep.
//
// Only the lower triangle (and the real part of the diagonal) is reduced,
// so a matrix that is not Hermitian would yield eigenpairs of some other
// matrix: one O(n²) pass first rejects non-finite or non-Hermitian input
// with ErrNotHermitian. Everything runs on the calling goroutine in a
// fixed order, so the result does not depend on GOMAXPROCS. The matrix
// is scaled by a power of two to unit size before the reduction — exact,
// and it keeps the squared norms clear of over- and underflow.
func HermitianEigen(h *CMatrix) ([]float64, *CMatrix, error) {
	if h.Rows != h.Cols {
		return nil, nil, ErrDimension
	}
	n := h.Rows
	var amax, defect float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			lo, up := h.Data[i*n+j], h.Data[j*n+i]
			m := max(math.Abs(real(lo)), math.Abs(imag(lo)), math.Abs(real(up)), math.Abs(imag(up)))
			if !(m <= math.MaxFloat64) { // NaN or ±Inf
				return nil, nil, ErrNotHermitian
			}
			amax = max(amax, m)
			defect = max(defect, math.Abs(real(lo)-real(up)), math.Abs(imag(lo)+imag(up)))
		}
	}
	if defect > hermitianTol*amax {
		return nil, nil, ErrNotHermitian
	}
	w := make([]float64, n)
	u := NewCMatrix(n, n)
	if n <= 1 {
		if n == 1 {
			w[0], u.Data[0] = real(h.Data[0]), 1
		}
		return w, u, nil
	}

	// One complex slab: the working copy a (lower triangle in, Q out) and
	// two vectors. One real slab: Zᵀ, the sub-diagonal e and the reflector
	// norms hh.
	cbuf := make([]complex128, n*n+2*n)
	a, qb, phi := cbuf[:n*n], cbuf[n*n:n*n+n], cbuf[n*n+n:]
	rbuf := make([]float64, n*n+2*n)
	zt, e, hh := rbuf[:n*n], rbuf[n*n:n*n+n], rbuf[n*n+n:]

	_, exp := math.Frexp(amax)
	exp = max(exp, -1022) // keep 2^-exp finite for an all-denormal matrix
	scale := complex(math.Ldexp(1, -exp), 0)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			a[i*n+j] = h.Data[i*n+j] * scale
		}
		a[i*n+i] = complex(real(h.Data[i*n+i]), 0) * scale
	}

	tridiagonalize(n, a, w, e, hh, phi, qb)
	accumulateQ(n, a, hh, qb)
	for i := 0; i < n; i++ {
		zt[i*n+i] = 1
	}
	if err := tridiagQL(w, e, zt); err != nil {
		return nil, nil, err
	}
	sortRows(w, zt)
	for i := 0; i < n; i++ { // Zᵀ → Z in place
		for j := 0; j < i; j++ {
			zt[i*n+j], zt[j*n+i] = zt[j*n+i], zt[i*n+j]
		}
	}
	// U = (Q·D)·Z, complex × real, as row updates over contiguous rows.
	for r := 0; r < n; r++ {
		urow := u.Data[r*n : (r+1)*n]
		for k, q := range a[r*n : (r+1)*n] {
			q *= phi[k]
			qr, qi := real(q), imag(q)
			for m, z := range zt[k*n : (k+1)*n] {
				urow[m] += complex(qr*z, qi*z)
			}
		}
	}
	for i := range w {
		w[i] = math.Ldexp(w[i], exp)
	}
	return w, u, nil
}

// tridiagonalize reduces the Hermitian matrix held in the lower triangle
// of a (row-major, n×n, real diagonal) to tridiagonal form with Hermitian
// Householder reflectors H_i = I − u uᴴ/h, working from the last row up:
// step i folds the i elements of row i left of the diagonal onto the last
// of them, so every inner loop runs along a row. On return d holds the
// diagonal of T, e[i-1] = |T[i][i-1]|, phi the unit phases with
// conj(phi[i])·T[i][i-1]·phi[i-1] = e[i-1], row i of a (columns < i)
// conj(u) of reflector i, and hh[i] its h — 0 where none was needed (a
// single element, or a row of negligible norm). qb is scratch.
func tridiagonalize(n int, a []complex128, d, e, hh []float64, phi, qb []complex128) {
	phi[n-1] = 1
	for i := n - 1; i >= 1; i-- {
		row := a[i*n : i*n+i]
		var sigma2 float64
		for _, v := range row {
			sigma2 += real(v)*real(v) + imag(v)*imag(v)
		}
		t := row[i-1] // T[i][i-1]
		hh[i] = 0
		if i > 1 && sigma2 > negligible*negligible {
			at := cmplx.Abs(t)
			ph := complex(1, 0)
			if at != 0 {
				ph = t / complex(at, 0)
			}
			sigma := math.Sqrt(sigma2)
			row[i-1] = t + ph*complex(sigma, 0)
			t = -ph * complex(sigma, 0)
			hh[i] = sigma2 + sigma*at
			reflectBlock(n, a, row, hh[i], qb[:i])
		}
		d[i] = real(a[i*n+i])
		at := cmplx.Abs(t)
		e[i-1] = at
		phi[i-1] = phi[i]
		if at != 0 {
			phi[i-1] *= cmplx.Conj(t) / complex(at, 0)
		}
	}
	d[0] = real(a[0])
	e[n-1] = 0
}

// reflectBlock applies B ← H B H to the leading l×l block of a (lower
// triangle only, l = len(ub)), H = I − u uᴴ/h with ub = conj(u):
// p = B u/h, q = p − (uᴴp/2h) u, B ← B − q uᴴ − u qᴴ. qb returns conj(q).
func reflectBlock(n int, a, ub []complex128, h float64, qb []complex128) {
	for k := range qb {
		qb[k] = 0
	}
	// p = B u accumulated in qb: one pass over the lower triangle, each
	// stored element serving its own row and its mirror image.
	for j := range ub {
		bj := a[j*n : j*n+j]
		uj := cmplx.Conj(ub[j])
		s := complex(real(a[j*n+j]), 0) * uj
		uk, pk := ub[:len(bj)], qb[:len(bj)]
		for k, b := range bj {
			s += b * cmplx.Conj(uk[k])
			pk[k] += cmplx.Conj(b) * uj
		}
		qb[j] += s
	}
	var kk float64 // uᴴp / 2h, real for Hermitian B
	for k, p := range qb {
		kk += real(ub[k] * p)
	}
	hinv := 1 / h
	kk *= hinv * hinv / 2
	for k, p := range qb { // q = p/h − kk·u, stored conjugated
		qb[k] = complex(real(p)*hinv-kk*real(ub[k]), -imag(p)*hinv-kk*imag(ub[k]))
	}
	for j := range ub {
		bj := a[j*n : j*n+j]
		qj, uj := cmplx.Conj(qb[j]), cmplx.Conj(ub[j])
		uk, qk := ub[:len(bj)], qb[:len(bj)]
		for k := range bj {
			bj[k] -= qj*uk[k] + uj*qk[k]
		}
		a[j*n+j] -= complex(2*real(qj*ub[j]), 0)
	}
}

// accumulateQ overwrites a with Q = H_{n-1}···H_2, building it up from
// the leading block: when reflector i (which acts on indices < i) is
// applied, the i×i block already holds the product of the earlier ones.
func accumulateQ(n int, a []complex128, hh []float64, scratch []complex128) {
	for i := 0; i < n; i++ {
		if h := hh[i]; h != 0 {
			ub := a[i*n : i*n+i]
			w := scratch[:i]
			for j := range w {
				w[j] = 0
			}
			for k, uv := range ub { // w = uᴴ Q
				for j, q := range a[k*n : k*n+i] {
					w[j] += uv * q
				}
			}
			hinv := 1 / h
			for k, uv := range ub { // Q ← Q − u w/h
				f := complex(real(uv)*hinv, -imag(uv)*hinv)
				qk := a[k*n : k*n+i]
				for j, wv := range w {
					qk[j] -= f * wv
				}
			}
		}
		for j := 0; j < i; j++ {
			a[i*n+j] = 0
			a[j*n+i] = 0
		}
		a[i*n+i] = 1
	}
}

// tridiagQL diagonalises the real symmetric tridiagonal matrix with
// diagonal d and sub-diagonal e (e[i] couples i and i+1; e[n-1] is
// scratch) by implicit-shift QL, overwriting d with the eigenvalues and
// applying every rotation to the rows of zt (n×n, row i = eigenvector i).
// The matrix is expected at unit scale: an off-diagonal below ε(|d_m| +
// |d_m+1|), or negligible outright, is deflated.
func tridiagQL(d, e, zt []float64) error {
	n := len(d)
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			m := l
			for ; m < n-1; m++ {
				ae := math.Abs(e[m])
				if ae <= epsilon*(math.Abs(d[m])+math.Abs(d[m+1])) || ae <= negligible {
					break
				}
			}
			if m == l {
				break
			}
			if iter == maxQLIter {
				return ErrNoConvergence
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f, b := s*e[i], c*e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 { // recover from underflow
					d[i+1] -= p
					e[m] = 0
					break
				}
				s, c = f/r, g/r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				zi, zi1 := zt[i*n:(i+1)*n], zt[(i+1)*n:(i+2)*n]
				for k, fk := range zi1 {
					zi1[k] = s*zi[k] + c*fk
					zi[k] = c*zi[k] - s*fk
				}
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// sortRows sorts d ascending and permutes the rows of zt to match.
func sortRows(d, zt []float64) {
	n := len(d)
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			zi, zk := zt[i*n:(i+1)*n], zt[k*n:(k+1)*n]
			for j := range zi {
				zi[j], zk[j] = zk[j], zi[j]
			}
		}
	}
}
