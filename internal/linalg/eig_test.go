package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// frobenius returns ‖A‖_F, scaled so 1e±150 entries neither overflow
// nor vanish.
func frobenius(a *CMatrix) float64 {
	var amax float64
	for _, v := range a.Data {
		amax = max(amax, math.Abs(real(v)), math.Abs(imag(v)))
	}
	if amax == 0 {
		return 0
	}
	var s float64
	for _, v := range a.Data {
		re, im := real(v)/amax, imag(v)/amax
		s += re*re + im*im
	}
	return amax * math.Sqrt(s)
}

// projector returns Σ_c u_c u_c† over columns lo ≤ c < hi.
func projector(u *CMatrix, lo, hi int) *CMatrix {
	n := u.Rows
	p := NewCMatrix(n, n)
	for c := lo; c < hi; c++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p.Data[i*n+j] += u.At(i, c) * cmplx.Conj(u.At(j, c))
			}
		}
	}
	return p
}

func maxAbsDiff(a, b *CMatrix) float64 {
	var d float64
	for i := range a.Data {
		d = max(d, cmplx.Abs(a.Data[i]-b.Data[i]))
	}
	return d
}

// checkEigen pins HermitianEigen(h) to the maths — AU = UΛ, U†U = I,
// ascending Λ — and to the Jacobi reference: eigenvalues to 1e-12·‖A‖
// and, cluster by cluster (eigenvalues closer than 1e-8·‖A‖ form one),
// the projectors onto the invariant subspaces. Vectors are never
// compared: inside a cluster any orthonormal basis is right, and a
// singleton's phase is free. A subspace is only determined to
// (backward error)/(gap to the rest of the spectrum), hence the gap in
// the projector tolerance.
func checkEigen(t *testing.T, h *CMatrix) {
	t.Helper()
	n := h.Rows
	norm := frobenius(h)
	w, u, err := HermitianEigen(h)
	if err != nil {
		t.Fatalf("HermitianEigen: %v", err)
	}
	wj, uj, err := hermitianEigenJacobi(h)
	if err != nil {
		t.Fatalf("Jacobi reference: %v", err)
	}
	if len(w) != n || u.Rows != n || u.Cols != n {
		t.Fatalf("result shapes %d, %d×%d for n = %d", len(w), u.Rows, u.Cols, n)
	}
	for i := range w {
		if i > 0 && w[i] < w[i-1] {
			t.Fatalf("eigenvalues not ascending at %d: %v", i, w)
		}
		if d := math.Abs(w[i] - wj[i]); !(d <= 1e-12*norm) {
			t.Errorf("eigenvalue %d: %.17g vs Jacobi %.17g (diff %.3g, ‖A‖ %.3g)", i, w[i], wj[i], d, norm)
		}
	}
	au := cgemmNaiveRef(h, u)
	var resid float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			resid = max(resid, cmplx.Abs(au.At(i, j)-u.At(i, j)*complex(w[j], 0)))
		}
	}
	if !(resid <= 1e-12*float64(n)*norm) {
		t.Errorf("‖AU − UΛ‖ = %.3g exceeds 1e-12·n·‖A‖ = %.3g", resid, 1e-12*float64(n)*norm)
	}
	eye := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		eye.Set(i, i, 1)
	}
	if d := maxAbsDiff(CGemmCT(u, u), eye); !(d <= 1e-12*float64(n)) {
		t.Errorf("‖U†U − I‖ = %.3g", d)
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && w[hi]-w[hi-1] <= 1e-8*norm {
			hi++
		}
		gap := math.Inf(1)
		if lo > 0 {
			gap = min(gap, w[lo]-w[lo-1])
		}
		if hi < n {
			gap = min(gap, w[hi]-w[hi-1])
		}
		tol := 1e-12 * float64(n) * max(1, norm/gap)
		if d := maxAbsDiff(projector(u, lo, hi), projector(uj, lo, hi)); !(d <= tol) {
			t.Errorf("projector onto eigenvalues [%d,%d) differs from Jacobi's by %.3g (tol %.3g, gap %.3g)", lo, hi, d, tol, gap)
		}
		lo = hi
	}
}

func TestHermitianEigenMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{1, 2, 3, 5, 14, 16, 28, 32, 57} {
		for rep := 0; rep < 20; rep++ {
			h := randHermitian(rng, n)
			t.Run(fmt.Sprintf("n=%d/%d", n, rep), func(t *testing.T) { checkEigen(t, h) })
		}
	}
}

func TestHermitianEigenHardCases(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	fromFunc := func(n int, f func(i, j int) complex128) *CMatrix {
		h := NewCMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := f(i, j)
				h.Set(i, j, v)
				h.Set(j, i, cmplx.Conj(v))
			}
		}
		return h
	}
	scaled := func(h *CMatrix, s float64) *CMatrix {
		out := h.Clone()
		CScale(complex(s, 0), out.Data)
		return out
	}
	v7 := randCMatrix(rng, 7, 1).Data
	block := randHermitian(rng, 2)
	dense := randHermitian(rng, 12)
	cases := []struct {
		name string
		h    *CMatrix
	}{
		{"diagonal", fromFunc(6, func(i, j int) complex128 {
			if i == j {
				return complex([]float64{3, -1, 2, 2, 0, 7}[i], 0)
			}
			return 0
		})},
		{"real tridiagonal", fromFunc(9, func(i, j int) complex128 {
			switch i - j {
			case 0:
				return complex(float64(i%3), 0)
			case 1:
				return complex(0.5+float64(i), 0)
			}
			return 0
		})},
		{"c·I", fromFunc(8, func(i, j int) complex128 {
			if i == j {
				return -2.5
			}
			return 0
		})},
		{"zero", NewCMatrix(5, 5)},
		{"rank-1 projector", fromFunc(7, func(i, j int) complex128 { return v7[i] * cmplx.Conj(v7[j]) })},
		{"two equal 2×2 blocks", fromFunc(4, func(i, j int) complex128 {
			if i/2 != j/2 {
				return 0
			}
			return block.At(i%2, j%2)
		})},
		{"Wilkinson W21+", fromFunc(21, func(i, j int) complex128 {
			switch i - j {
			case 0:
				return complex(math.Abs(float64(i-10)), 0)
			case 1:
				return 1
			}
			return 0
		})},
		// Row 5 left of the diagonal is zero, so its Householder step is
		// skipped, and so is row 1's single element.
		{"zero sub-column", fromFunc(8, func(i, j int) complex128 {
			if i != j && (i == 5 || i == 1) {
				return 0
			}
			return dense.At(i, j)
		})},
		{"scaled 1e-150", scaled(dense, 1e-150)},
		{"scaled 1e+150", scaled(dense, 1e+150)},
		{"imaginary off-diagonal", fromFunc(10, func(i, j int) complex128 {
			if i == j {
				return complex(float64(i), 0)
			}
			return complex(0, imag(dense.At(i, j)))
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkEigen(t, c.h) })
	}

	w, _, err := HermitianEigen(cases[4].h) // rank-1: n−1 zeros, then ‖v‖²
	if err != nil {
		t.Fatal(err)
	}
	norm2 := real(CDot(v7, v7))
	for i, wi := range w {
		want := 0.0
		if i == len(w)-1 {
			want = norm2
		}
		if math.Abs(wi-want) > 1e-12*norm2 {
			t.Errorf("rank-1 eigenvalue %d = %g, want %g", i, wi, want)
		}
	}
}

func TestHermitianEigenOneByOne(t *testing.T) {
	one := NewCMatrix(1, 1)
	one.Set(0, 0, -3)
	w, u, err := HermitianEigen(one)
	if err != nil || w[0] != -3 || u.At(0, 0) != 1 {
		t.Fatalf("n = 1: %v, %v, %v", w, u, err)
	}
}

// TestHermitianEigenRejects: the solver reduces one triangle, so input it
// cannot vouch for — NaN, ±Inf, a Hermiticity defect — must come back as
// an error, in either triangle, promptly and without a panic.
func TestHermitianEigenRejects(t *testing.T) {
	bad := map[string]complex128{
		"NaN":       complex(math.NaN(), 0),
		"+Inf":      complex(math.Inf(1), 0),
		"-Inf imag": complex(0, math.Inf(-1)),
	}
	for _, n := range []int{1, 2, 14} {
		for name, v := range bad {
			for _, at := range [][2]int{{0, 0}, {n - 1, 0}, {0, n - 1}} {
				h := randHermitian(rand.New(rand.NewSource(3)), n)
				h.Set(at[0], at[1], v)
				expectNotHermitian(t, fmt.Sprintf("n=%d %s at %v", n, name, at), h)
			}
		}
	}
	h := randHermitian(rand.New(rand.NewSource(4)), 14)
	h.Set(2, 9, h.At(2, 9)+complex(1e-3*frobenius(h), 0))
	expectNotHermitian(t, "1e-3 defect", h)
	h = randHermitian(rand.New(rand.NewSource(5)), 14)
	h.Set(6, 6, h.At(6, 6)+1e-3i)
	expectNotHermitian(t, "imaginary diagonal", h)
	// Round-off-sized defects are what Ψ†HΨ really has; they must pass.
	h = randHermitian(rand.New(rand.NewSource(6)), 14)
	h.Set(2, 9, h.At(2, 9)*(1+1e-13))
	if _, _, err := HermitianEigen(h); err != nil {
		t.Errorf("1e-13 defect rejected: %v", err)
	}
}

func expectNotHermitian(t *testing.T, name string, h *CMatrix) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := HermitianEigen(h)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrNotHermitian) {
			t.Errorf("%s: got %v, want ErrNotHermitian", name, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no answer within 10 s", name)
	}
}

// TestTridiagQLIterationCap: a NaN makes every deflation test fail; the
// iteration must end at its cap with ErrNoConvergence, not spin or index
// past the sub-diagonal.
func TestTridiagQLIterationCap(t *testing.T) {
	n := 6
	d := []float64{1, 2, math.NaN(), 4, 5, 6}
	e := []float64{1, 1, 1, 1, 1, 0}
	if err := tridiagQL(d, e, make([]float64, n*n)); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("got %v, want ErrNoConvergence", err)
	}
}

// TestHermitianEigenScratch: the direct solver may not hold more memory
// than the Jacobi it replaced (peak RSS is a gated benchmark metric).
func TestHermitianEigenScratch(t *testing.T) {
	h := randHermitian(rand.New(rand.NewSource(7)), 28)
	bytesPerCall := func(solve func(*CMatrix) ([]float64, *CMatrix, error)) uint64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, _, err := solve(h); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	direct, jacobi := bytesPerCall(HermitianEigen), bytesPerCall(hermitianEigenJacobi)
	if direct > jacobi {
		t.Errorf("direct solver allocates %d B per call at n = 28, Jacobi %d", direct, jacobi)
	}
	if allocs := testing.AllocsPerRun(20, func() { HermitianEigen(h) }); allocs >= 10 {
		t.Errorf("%v allocations per call, want < 10", allocs)
	}
}

// The TestEigenSym* cases below are those of the real symmetric Jacobi
// routine that was deleted with its only caller, its own test file; as
// real Hermitian matrices they exercise the direct solver's trivial-
// phase path (every sub-diagonal phase ±1).

func realSymmetric(n int, f func(i, j int) float64) *CMatrix {
	h := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := complex(f(i, j), 0)
			h.Set(i, j, v)
			h.Set(j, i, v)
		}
	}
	return h
}

func randRealSymmetric(rng *rand.Rand, n int) *CMatrix {
	return realSymmetric(n, func(int, int) float64 { return rng.NormFloat64() })
}

func TestEigenSymDiagonal(t *testing.T) {
	diag := []float64{3, 1, 2}
	h := realSymmetric(3, func(i, j int) float64 {
		if i == j {
			return diag[i]
		}
		return 0
	})
	w, _, err := HermitianEigen(h)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(w[i]-want) > 1e-12 {
			t.Fatalf("eigenvalue %d: got %g want %g", i, w[i], want)
		}
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2, 1], [1, 2]] has eigenvalues 1 and 3.
	h := realSymmetric(2, func(i, j int) float64 { return 2 - float64(i-j) })
	w, _, err := HermitianEigen(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-1) > 1e-12 || math.Abs(w[1]-3) > 1e-12 {
		t.Fatalf("got %v, want [1 3]", w)
	}
}

func TestEigenSymRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 3, 8, 25, 60} {
		h := randRealSymmetric(rng, n)
		checkEigen(t, h)
		_, u, _ := HermitianEigen(h)
		// Real input, real arithmetic throughout: eigenvectors come back
		// real up to the (±1) phases.
		for _, v := range u.Data {
			if imag(v) != 0 {
				t.Fatalf("n=%d: eigenvector of a real matrix has imaginary part %g", n, imag(v))
			}
		}
	}
}

func TestEigenSymDegenerate(t *testing.T) {
	eye := realSymmetric(5, func(i, j int) float64 {
		if i == j {
			return 1
		}
		return 0
	})
	checkEigen(t, eye)
	w, _, _ := HermitianEigen(eye)
	for _, val := range w {
		if val != 1 {
			t.Fatalf("identity eigenvalue %g != 1", val)
		}
	}
}

// Property: trace(A) == sum of eigenvalues; Frobenius norm² == sum w².
func TestEigenInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		h := randRealSymmetric(rng, n)
		w, _, err := HermitianEigen(h)
		if err != nil {
			return false
		}
		var tr, sw, sw2 float64
		for i := 0; i < n; i++ {
			tr += real(h.At(i, i))
		}
		for _, v := range w {
			sw += v
			sw2 += v * v
		}
		frob := frobenius(h)
		return math.Abs(tr-sw) < 1e-12*(1+math.Abs(tr)) &&
			math.Abs(frob*frob-sw2) < 1e-12*(1+frob*frob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymEmptyAndRect(t *testing.T) {
	w, v, err := HermitianEigen(realSymmetric(0, nil))
	if err != nil || len(w) != 0 || v.Rows != 0 {
		t.Fatal("empty matrix should give empty result")
	}
	if _, _, err := HermitianEigen(NewCMatrix(2, 3)); !errors.Is(err, ErrDimension) {
		t.Fatalf("rectangular input: %v", err)
	}
}
