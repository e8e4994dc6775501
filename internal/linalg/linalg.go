// Package linalg holds the dense complex kernels the plane-wave solver
// runs: the row-major CMatrix that packs the Kohn–Sham wave functions Ψ
// (Np plane waves × Nband bands), the all-band BLAS3 products CGemm and
// CGemmCT(Into), the Hermitian Cholesky factorization of the overlap
// matrix, the direct Hermitian eigensolver of the Rayleigh–Ritz step,
// and the vector operations of orthonormalization.
//
// The package plays the role ESSL played in the paper. §3.4 transforms
// band-by-band BLAS2 work into all-band BLAS3 work, and only the
// transformed form is kept here; the band-by-band nonlocal reference,
// pseudo.ApplyBandByBand, is the BLAS2 leg of pw's BenchmarkNonlocal.
package linalg

import "errors"

// ErrDimension is returned when operand shapes are incompatible.
var ErrDimension = errors.New("linalg: incompatible dimensions")

// rowGrain is the fewest rows of n·p multiply-adds each that make work.
func rowGrain(work, n, p int) int {
	return (work + n*p - 1) / max(n*p, 1)
}
