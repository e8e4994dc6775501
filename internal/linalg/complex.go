package linalg

import (
	"errors"
	"math"
	"math/cmplx"

	"ldcdft/internal/par"
	"ldcdft/internal/perf"
)

// CMatrix is a dense, row-major complex matrix. In the plane-wave solver
// a CMatrix with Rows = Np (plane waves) and Cols = Nband holds the packed
// Kohn–Sham wave functions Ψ of Eq. (5).
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix returns a zeroed r×c complex matrix.
func NewCMatrix(r, c int) *CMatrix {
	return &CMatrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// At returns element (i, j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *CMatrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *CMatrix) Clone() *CMatrix {
	out := NewCMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Col extracts column j into dst (len Rows) and returns it; dst may be nil.
func (m *CMatrix) Col(j int, dst []complex128) []complex128 {
	if dst == nil {
		dst = make([]complex128, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// SetCol stores src (len Rows) into column j.
func (m *CMatrix) SetCol(j int, src []complex128) {
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = src[i]
	}
}

// CDot returns ⟨x|y⟩ = Σ conj(x_i) y_i.
func CDot(x, y []complex128) complex128 {
	if len(x) != len(y) {
		panic(ErrDimension)
	}
	var s complex128
	for i, v := range x {
		s += cmplx.Conj(v) * y[i]
	}
	perf.Global.AddVector(8 * int64(len(x)))
	return s
}

// CNorm2 returns the Euclidean norm of x.
func CNorm2(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// CAxpy computes y += a*x.
func CAxpy(a complex128, x, y []complex128) {
	if len(x) != len(y) {
		panic(ErrDimension)
	}
	for i, v := range x {
		y[i] += a * v
	}
	perf.Global.AddVector(8 * int64(len(x)))
}

// CScale multiplies x by a in place.
func CScale(a complex128, x []complex128) {
	for i := range x {
		x[i] *= a
	}
}

// CGemm computes C = A*B for complex matrices in row panels of at least
// 32³ multiply-adds on the internal/par pool, so a small product runs
// inline and every row is summed in order at any processor count. It is
// the ZGEMM analog used by the all-band (BLAS3) code path of §3.4.
func CGemm(a, b, c *CMatrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(ErrDimension)
	}
	clear(c.Data)
	par.For(a.Rows, rowGrain(32*32*32, a.Cols, b.Cols), func(r0, r1 int) {
		cgemmRange(a, b, c, r0, r1)
	})
}

func cgemmRange(a, b, c *CMatrix, r0, r1 int) {
	n, p := a.Cols, b.Cols
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < n; k++ {
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
	perf.Global.AddVector(8 * int64(r1-r0) * int64(n) * int64(p))
}

// CGemmCT computes C = A† * B (conjugate-transpose of A times B).
// With A = B = Ψ this yields the Nband×Nband overlap matrix S = Ψ†Ψ of
// §3.3 ("constructing an overlap matrix ... using reciprocal-space
// decomposition").
func CGemmCT(a, b *CMatrix) *CMatrix {
	c := NewCMatrix(a.Cols, b.Cols)
	CGemmCTInto(a, b, c)
	return c
}

// CGemmCTInto computes C = A† * B into the caller's c (zeroed here),
// avoiding the result allocation of CGemmCT — the form used by pooled
// hot paths. The sum over rows is one in-order pass on the calling
// goroutine: it is a reduction, so splitting it across workers would
// make the rounding depend on where the chunks begin — and trajectories
// must be bit-identical on nodes with different processor counts
// (resume after a requeue). Callers already run one domain per worker,
// and rows is the plane-wave count (tens), so there is nothing to win.
func CGemmCTInto(a, b, c *CMatrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(ErrDimension)
	}
	for i := range c.Data {
		c.Data[i] = 0
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			ca := cmplx.Conj(av)
			crow := c.Row(i)
			for j, bv := range brow {
				crow[j] += ca * bv
			}
		}
	}
	perf.Global.AddVector(8 * int64(a.Cols) * int64(b.Cols) * int64(a.Rows))
}

// ErrNotHermitianPD is returned by CholeskyHermitian for non-positive-
// definite input.
var ErrNotHermitianPD = errors.New("linalg: matrix is not Hermitian positive definite")

// CholeskyHermitian computes the lower factor L with A = L*L† for a
// Hermitian positive-definite A (e.g. the wave-function overlap matrix).
func CholeskyHermitian(a *CMatrix) (*CMatrix, error) {
	if a.Rows != a.Cols {
		return nil, ErrDimension
	}
	n := a.Rows
	l := NewCMatrix(n, n)
	var maxDiag float64
	for j := 0; j < n; j++ {
		if dj := real(a.At(j, j)); dj > maxDiag {
			maxDiag = dj
		}
	}
	for j := 0; j < n; j++ {
		d := real(a.At(j, j))
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			v := lrowj[k]
			d -= real(v)*real(v) + imag(v)*imag(v)
		}
		// A pivot far below the matrix scale signals numerically
		// dependent columns; proceeding would amplify round-off into
		// garbage (the factor is used to orthonormalize wave functions).
		if d <= 1e-13*maxDiag || math.IsNaN(d) {
			return nil, ErrNotHermitianPD
		}
		dj := math.Sqrt(d)
		l.Set(j, j, complex(dj, 0))
		inv := complex(1/dj, 0)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lrowi[k] * cmplx.Conj(lrowj[k])
			}
			l.Set(i, j, s*inv)
		}
	}
	perf.Global.AddVector(4 * int64(n) * int64(n) * int64(n) / 3)
	return l, nil
}

// InvLowerC returns the inverse of a complex lower-triangular matrix.
func InvLowerC(l *CMatrix) *CMatrix {
	n := l.Rows
	inv := NewCMatrix(n, n)
	for j := 0; j < n; j++ {
		// Solve L x = e_j by forward substitution.
		x := make([]complex128, n)
		x[j] = 1
		for i := j; i < n; i++ {
			s := x[i]
			row := l.Row(i)
			for k := j; k < i; k++ {
				s -= row[k] * x[k]
			}
			x[i] = s / row[i]
		}
		for i := j; i < n; i++ {
			inv.Set(i, j, x[i])
		}
	}
	return inv
}
