package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"ldcdft/internal/perf"
)

// The direct-summation DFTs and the 1-D transforms below are the oracles
// and entry points the engine is checked through; no program path runs
// them.

// Forward computes the in-place forward DFT of one line:
// X[k] = Σ x[j] e^{-2πi jk/n}.
func (p *Plan) Forward(x []complex128) {
	p.forwardS(x, make([]complex128, p.n), 1)
}

// Inverse computes the in-place inverse DFT, including the 1/n factor:
// x[j] = (1/n) Σ X[k] e^{+2πi jk/n}.
func (p *Plan) Inverse(x []complex128) {
	p.Forward(x)
	inv := 1 / float64(p.n)
	x[0] = scale(x[0], inv)
	for j, k := 1, p.n-1; j <= k; j, k = j+1, k-1 {
		x[j], x[k] = scale(x[k], inv), scale(x[j], inv)
	}
}

// SlowDFT computes the forward DFT by direct O(n²) summation. It is the
// "commodity, non-vectorized library" stand-in of the §4.2 ablation (the
// role the unvectorized FFTW build played on Blue Gene/Q before the
// switch to Spiral) and the correctness reference for Plan: the angle is
// reduced mod n before the sine, so the oracle itself is good to
// ~1e-13·‖x‖ at n = 1000.
func SlowDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * root(k*j, n)
		}
		out[k] = s
	}
	perf.Global.Add(8 * int64(n) * int64(n))
	return out
}

// SlowIDFT computes the inverse DFT (with 1/n) by direct summation.
func SlowIDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * conj(root(k*j, n))
		}
		out[k] = s / complex(float64(n), 0)
	}
	perf.Global.Add(8 * int64(n) * int64(n))
	return out
}

func randVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func norm2(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// oracleLengths is every length 1…128 — each radix, every mix of them,
// the generic butterfly's primes — and three long ones, the last a
// 1009-point generic stage.
func oracleLengths() []int {
	lengths := []int{360, 1000, 1009}
	for n := 1; n <= 128; n++ {
		lengths = append(lengths, n)
	}
	return lengths
}

func TestForwardMatchesSlowDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range oracleLengths() {
		x := randVec(rng, n)
		want := SlowDFT(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		if d := maxDiff(got, want); d > 1e-12*norm2(x) {
			t.Errorf("n=%d: forward differs from slow DFT by %g", n, d)
		}
	}
}

// rawInverse is the unnormalized inverse as every 3-D pass forms it: the
// forward transform read at (n−j) mod n.
func rawInverse(p *Plan, x []complex128) []complex128 {
	y := append([]complex128(nil), x...)
	p.Forward(y)
	out := make([]complex128, p.n)
	for j := range out {
		out[j] = y[rev(j, p.n, true)]
	}
	return out
}

func TestInverseMatchesSlowIDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range oracleLengths() {
		x := randVec(rng, n)
		want := SlowIDFT(x)
		tol := 1e-12 * norm2(x)
		p := NewPlan(n)
		got := append([]complex128(nil), x...)
		p.Inverse(got)
		if d := maxDiff(got, want); d > tol/float64(n) {
			t.Errorf("n=%d: inverse differs from slow IDFT by %g", n, d)
		}
		for i := range want {
			want[i] *= complex(float64(n), 0)
		}
		if d := maxDiff(rawInverse(p, x), want); d > tol {
			t.Errorf("n=%d: raw inverse differs from n·(slow IDFT) by %g", n, d)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 8, 13, 64, 81, 256, 1000} {
		p := NewPlan(n)
		x := randVec(rng, n)
		orig := append([]complex128(nil), x...)
		p.Forward(x)
		p.Inverse(x)
		if d := maxDiff(x, orig); d > 1e-9*float64(n) {
			t.Fatalf("n=%d: roundtrip error %g", n, d)
		}
	}
}

// Property: Parseval's theorem — Σ|x|² == (1/n)Σ|X|².
func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		x := randVec(rng, n)
		var inEnergy float64
		for _, v := range x {
			inEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		NewPlan(n).Forward(x)
		var outEnergy float64
		for _, v := range x {
			outEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		outEnergy /= float64(n)
		return math.Abs(inEnergy-outEnergy) < 1e-8*(1+inEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: linearity — FFT(a·x + y) == a·FFT(x) + FFT(y).
func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		p := NewPlan(n)
		x := randVec(rng, n)
		y := randVec(rng, n)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		combo := make([]complex128, n)
		for i := range combo {
			combo[i] = a*x[i] + y[i]
		}
		p.Forward(combo)
		p.Forward(x)
		p.Forward(y)
		for i := range combo {
			if cmplx.Abs(combo[i]-(a*x[i]+y[i])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaFunction(t *testing.T) {
	// FFT of a delta at 0 is all ones.
	n := 32
	x := make([]complex128, n)
	x[0] = 1
	NewPlan(n).Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("delta transform at %d: %v", i, v)
		}
	}
}

func TestPlaneWaveOrthogonality(t *testing.T) {
	// FFT of e^{2πi k0 j / n} is n·delta at k0 (forward uses e^{-};
	// so the peak lands at k0).
	n := 64
	k0 := 5
	x := make([]complex128, n)
	for j := range x {
		ang := 2 * math.Pi * float64(k0) * float64(j) / float64(n)
		x[j] = complex(math.Cos(ang), math.Sin(ang))
	}
	NewPlan(n).Forward(x)
	for k, v := range x {
		want := complex128(0)
		if k == k0 {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-9*float64(n) {
			t.Fatalf("plane-wave transform at k=%d: %v", k, v)
		}
	}
}

func TestPlan3RoundTripAndDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range [][3]int{{4, 4, 4}, {8, 4, 2}, {3, 5, 7}, {16, 16, 16}} {
		p := NewPlan3(shape[0], shape[1], shape[2])
		x := randVec(rng, p.Size())
		orig := append([]complex128(nil), x...)
		p.Forward(x)
		p.Inverse(x)
		if d := maxDiff(x, orig); d > 1e-8 {
			t.Fatalf("shape %v roundtrip error %g", shape, d)
		}
		// Delta at origin -> constant spectrum.
		y := make([]complex128, p.Size())
		y[0] = 1
		p.Forward(y)
		for i, v := range y {
			if cmplx.Abs(v-1) > 1e-10 {
				t.Fatalf("shape %v delta at %d: %v", shape, i, v)
			}
		}
	}
}

func TestPlan3MatchesSeparableSlowDFT(t *testing.T) {
	// Verify the 3-D transform against direct triple summation on a tiny
	// grid.
	nx, ny, nz := 3, 2, 4
	rng := rand.New(rand.NewSource(5))
	p := NewPlan3(nx, ny, nz)
	x := randVec(rng, p.Size())
	want := make([]complex128, len(x))
	for kx := 0; kx < nx; kx++ {
		for ky := 0; ky < ny; ky++ {
			for kz := 0; kz < nz; kz++ {
				var s complex128
				for jx := 0; jx < nx; jx++ {
					for jy := 0; jy < ny; jy++ {
						for jz := 0; jz < nz; jz++ {
							ang := -2 * math.Pi * (float64(kx*jx)/float64(nx) +
								float64(ky*jy)/float64(ny) + float64(kz*jz)/float64(nz))
							s += x[(jx*ny+jy)*nz+jz] * complex(math.Cos(ang), math.Sin(ang))
						}
					}
				}
				want[(kx*ny+ky)*nz+kz] = s
			}
		}
	}
	p.Forward(x)
	if d := maxDiff(x, want); d > 1e-9 {
		t.Fatalf("3-D transform differs from direct sum by %g", d)
	}
}

func TestNewPlanPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NewPlan(0)
}
