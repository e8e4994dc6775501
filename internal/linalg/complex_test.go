package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randCMatrix(rng *rand.Rand, r, c int) *CMatrix {
	m := NewCMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func randHermitian(rng *rand.Rand, n int) *CMatrix {
	h := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		h.Set(i, i, complex(rng.NormFloat64(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			h.Set(i, j, v)
			h.Set(j, i, cmplx.Conj(v))
		}
	}
	return h
}

func cgemmNaiveRef(a, b *CMatrix) *CMatrix {
	c := NewCMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s complex128
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func cEqualish(a, b *CMatrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestCGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, s := range [][3]int{{1, 1, 1}, {3, 5, 2}, {33, 17, 40}, {64, 64, 8}} {
		a := randCMatrix(rng, s[0], s[1])
		b := randCMatrix(rng, s[1], s[2])
		c := NewCMatrix(s[0], s[2])
		CGemm(a, b, c)
		if !cEqualish(c, cgemmNaiveRef(a, b), 1e-9) {
			t.Fatalf("CGemm mismatch for %v", s)
		}
	}
}

func TestCGemmCT(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randCMatrix(rng, 40, 7)
	b := randCMatrix(rng, 40, 9)
	got := CGemmCT(a, b)
	// Reference: conj-transpose a then multiply.
	at := NewCMatrix(7, 40)
	for i := 0; i < 40; i++ {
		for j := 0; j < 7; j++ {
			at.Set(j, i, cmplx.Conj(a.At(i, j)))
		}
	}
	want := cgemmNaiveRef(at, b)
	if !cEqualish(got, want, 1e-9) {
		t.Fatal("CGemmCT mismatch")
	}
}

func TestCGemmCTOverlapHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	psi := randCMatrix(rng, 50, 6)
	s := CGemmCT(psi, psi)
	for i := 0; i < 6; i++ {
		if math.Abs(imag(s.At(i, i))) > 1e-10 {
			t.Fatal("overlap diagonal not real")
		}
		if real(s.At(i, i)) <= 0 {
			t.Fatal("overlap diagonal not positive")
		}
		for j := 0; j < 6; j++ {
			if cmplx.Abs(s.At(i, j)-cmplx.Conj(s.At(j, i))) > 1e-10 {
				t.Fatal("overlap not Hermitian")
			}
		}
	}
}

// TestCGemmCTBitIdenticalAcrossProcessorCounts: the A†B sum is a
// reduction over rows, so its rounding depends on the order of the
// additions — which must therefore not depend on GOMAXPROCS or on
// goroutine scheduling. rows 24–57 are the plane-wave counts the engine
// reaches; 1000 is far past any threshold a parallel split would use.
// CGemm and the parallel real GEMM split their rows over the worker
// pool; at shapes past their inline cutoffs (32³ and 64³ multiply-adds)
// each row must still come out the same.
func TestCGemmCTBitIdenticalAcrossProcessorCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(34))
	type product struct {
		name string
		run  func() []float64
	}
	var cases []product
	for _, rows := range []int{24, 33, 57, 1000} {
		a := randCMatrix(rng, rows, 8)
		b := randCMatrix(rng, rows, 8)
		cases = append(cases, product{fmt.Sprintf("CGemmCT rows=%d", rows), func() []float64 {
			return complexBits(CGemmCT(a, b).Data)
		}})
	}
	ca, cb := randCMatrix(rng, 200, 40), randCMatrix(rng, 40, 30)
	cases = append(cases, product{"CGemm 200×40×30", func() []float64 {
		c := NewCMatrix(200, 30)
		CGemm(ca, cb, c)
		return complexBits(c.Data)
	}})
	ra, rb := randMatrix(rng, 300, 80), randMatrix(rng, 80, 60)
	cases = append(cases, product{"Gemm(GemmParallel) 300×80×60", func() []float64 {
		c := NewMatrix(300, 60)
		Gemm(GemmParallel, ra, rb, c)
		return c.Data
	}})
	for _, pc := range cases {
		var want []float64
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 20; rep++ {
				got := pc.run()
				if want == nil {
					want = got
					continue
				}
				for i, v := range got {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Fatalf("%s GOMAXPROCS=%d rep %d: word %d is %v, first run gave %v",
							pc.name, procs, rep, i, v, want[i])
					}
				}
			}
		}
	}
}

// complexBits flattens complex values into their real and imaginary parts.
func complexBits(z []complex128) []float64 {
	out := make([]float64, 0, 2*len(z))
	for _, v := range z {
		out = append(out, real(v), imag(v))
	}
	return out
}

func TestCholeskyHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{1, 2, 6, 20} {
		m := randCMatrix(rng, n+5, n)
		a := CGemmCT(m, m)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+complex(float64(n), 0))
		}
		l, err := CholeskyHermitian(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Reconstruct L L†.
		ldag := NewCMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ldag.Set(i, j, cmplx.Conj(l.At(j, i)))
			}
		}
		rec := cgemmNaiveRef(l, ldag)
		if !cEqualish(a, rec, 1e-8*float64(n)) {
			t.Fatalf("n=%d: LL† != A", n)
		}
	}
}

func TestCholeskyHermitianRejects(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, -1)
	a.Set(1, 1, 1)
	if _, err := CholeskyHermitian(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestInvLowerC(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 8
	m := randCMatrix(rng, n+3, n)
	a := CGemmCT(m, m)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+complex(float64(n), 0))
	}
	l, err := CholeskyHermitian(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := InvLowerC(l)
	prod := cgemmNaiveRef(l, inv)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(prod.At(i, j)-want) > 1e-9 {
				t.Fatalf("L L⁻¹ != I at (%d,%d)", i, j)
			}
		}
	}
}

func TestHermitianEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{1, 2, 3, 10, 24} {
		h := randHermitian(rng, n)
		w, v, err := HermitianEigen(h)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// H v_j == w_j v_j
		hv := cgemmNaiveRef(h, v)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				want := v.At(i, j) * complex(w[j], 0)
				if cmplx.Abs(hv.At(i, j)-want) > 1e-8*math.Sqrt(float64(n)) {
					t.Fatalf("n=%d: Hv != wv at (%d,%d)", n, i, j)
				}
			}
		}
		// Unitarity.
		vtv := CGemmCT(v, v)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := complex128(0)
				if i == j {
					want = 1
				}
				if cmplx.Abs(vtv.At(i, j)-want) > 1e-9 {
					t.Fatalf("n=%d: eigenvectors not unitary", n)
				}
			}
		}
		// Ascending.
		for i := 1; i < n; i++ {
			if w[i] < w[i-1]-1e-12 {
				t.Fatalf("n=%d: eigenvalues not sorted: %v", n, w)
			}
		}
	}
}

// Property: Hermitian eigenvalues are real and their sum equals the trace.
func TestHermitianEigenTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		h := randHermitian(rng, n)
		w, _, err := HermitianEigen(h)
		if err != nil {
			return false
		}
		var tr, sw float64
		for i := 0; i < n; i++ {
			tr += real(h.At(i, i))
		}
		for _, v := range w {
			sw += v
		}
		return math.Abs(tr-sw) < 1e-9*(1+math.Abs(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComplexVectorOps(t *testing.T) {
	x := []complex128{1 + 2i, 3 - 1i}
	y := []complex128{2, 1i}
	d := CDot(x, y)
	// conj(1+2i)*2 + conj(3-1i)*1i = (2-4i) + (3+1i)*1i = 2-4i + 3i-1 = 1-1i
	if cmplx.Abs(d-(1-1i)) > 1e-14 {
		t.Fatalf("CDot = %v", d)
	}
	if math.Abs(CNorm2([]complex128{3, 4i})-5) > 1e-14 {
		t.Fatal("CNorm2")
	}
	z := []complex128{1, 1}
	CAxpy(2i, []complex128{1, 2}, z)
	if z[0] != 1+2i || z[1] != 1+4i {
		t.Fatalf("CAxpy got %v", z)
	}
	CScale(2, z)
	if z[0] != 2+4i {
		t.Fatal("CScale")
	}
}

func TestCMatrixColOps(t *testing.T) {
	m := NewCMatrix(3, 2)
	col := []complex128{1, 2i, 3}
	m.SetCol(1, col)
	got := m.Col(1, nil)
	for i := range col {
		if got[i] != col[i] {
			t.Fatal("Col/SetCol roundtrip failed")
		}
	}
	if m.At(0, 0) != 0 {
		t.Fatal("column 0 should be untouched")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone should deep copy")
	}
}
