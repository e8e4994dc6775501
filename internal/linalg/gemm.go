package linalg

import (
	"ldcdft/internal/par"
	"ldcdft/internal/perf"
)

// GemmVariant selects a matrix-multiplication implementation. The paper's
// §3.4 transformation replaces many GEMV (BLAS2) calls with one GEMM
// (BLAS3) call; §4.2 further tunes the GEMM itself (ESSL / JAG-DGEMM).
// The three variants here expose that progression as measurable choices.
type GemmVariant int

const (
	// GemmNaive is the triple loop in ijk order (poor locality).
	GemmNaive GemmVariant = iota
	// GemmBlocked is cache-blocked with ikj inner order (unit stride).
	GemmBlocked
	// GemmParallel is GemmBlocked in row panels of ≥ 64³ multiply-adds on
	// the internal/par pool. It stands in for the threaded ESSL/JAG-DGEMM.
	GemmParallel
)

// String returns the variant name.
func (v GemmVariant) String() string {
	switch v {
	case GemmNaive:
		return "naive"
	case GemmBlocked:
		return "blocked"
	case GemmParallel:
		return "parallel"
	}
	return "unknown"
}

// gemmBlock is the cache-block edge for the blocked kernels.
const gemmBlock = 64

// Gemv computes y = A*x. It is the BLAS2 (DGEMV) path used by the
// original band-by-band algorithm in §3.4.
func Gemv(a *Matrix, x, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(ErrDimension)
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	perf.Global.AddScalar(2 * int64(a.Rows) * int64(a.Cols))
}

// GemvT computes y = Aᵀ*x.
func GemvT(a *Matrix, x, y []float64) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic(ErrDimension)
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		xi := x[i]
		for j, v := range row {
			y[j] += xi * v
		}
	}
	perf.Global.AddScalar(2 * int64(a.Rows) * int64(a.Cols))
}

// Gemm computes C = A*B using the requested variant. C must have shape
// A.Rows × B.Cols and is overwritten.
func Gemm(variant GemmVariant, a, b, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(ErrDimension)
	}
	switch variant {
	case GemmNaive:
		gemmNaive(a, b, c)
	case GemmBlocked:
		c.Zero()
		gemmBlockedRange(a, b, c, 0, a.Rows)
	case GemmParallel:
		gemmParallel(a, b, c)
	default:
		panic("linalg: unknown GEMM variant")
	}
}

// MatMul is shorthand for a parallel GEMM into a freshly allocated matrix.
func MatMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	Gemm(GemmParallel, a, b, c)
	return c
}

// MatMulT computes A*Bᵀ into a freshly allocated matrix using the blocked
// kernel; it avoids materializing the transpose.
func MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(ErrDimension)
	}
	c := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, v := range arow {
				s += v * brow[k]
			}
			crow[j] = s
		}
	}
	perf.Global.AddVector(2 * int64(a.Rows) * int64(b.Rows) * int64(a.Cols))
	return c
}

// MatTMul computes Aᵀ*B into a freshly allocated matrix.
func MatTMul(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(ErrDimension)
	}
	c := NewMatrix(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			crow := c.Row(i)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	perf.Global.AddVector(2 * int64(a.Cols) * int64(b.Cols) * int64(a.Rows))
	return c
}

func gemmNaive(a, b, c *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	perf.Global.AddScalar(2 * int64(a.Rows) * int64(b.Cols) * int64(a.Cols))
}

// gemmBlockedRange computes rows [r0, r1) of C += A*B with cache blocking.
// C rows in the range must be zeroed by the caller.
func gemmBlockedRange(a, b, c *Matrix, r0, r1 int) {
	n, p := a.Cols, b.Cols
	for ii := r0; ii < r1; ii += gemmBlock {
		iMax := min(ii+gemmBlock, r1)
		for kk := 0; kk < n; kk += gemmBlock {
			kMax := min(kk+gemmBlock, n)
			for i := ii; i < iMax; i++ {
				arow := a.Row(i)
				crow := c.Row(i)
				for k := kk; k < kMax; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					brow := b.Data[k*p : (k+1)*p]
					for j, bv := range brow {
						crow[j] += av * bv
					}
				}
			}
		}
	}
	perf.Global.AddVector(2 * int64(r1-r0) * int64(n) * int64(p))
}

func gemmParallel(a, b, c *Matrix) {
	c.Zero()
	par.For(a.Rows, rowGrain(64*64*64, a.Cols, b.Cols), func(r0, r1 int) {
		gemmBlockedRange(a, b, c, r0, r1)
	})
}

// rowGrain is the fewest rows of n·p multiply-adds each that make work.
func rowGrain(work, n, p int) int {
	return (work + n*p - 1) / max(n*p, 1)
}
