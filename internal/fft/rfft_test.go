package fft

import (
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

func randReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func widen(x []float64) []complex128 {
	z := make([]complex128, len(x))
	for i, v := range x {
		z[i] = complex(v, 0)
	}
	return z
}

func maxDiffReal(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// TestRPlanMatchesComplexPlan checks the 1-D r2c forward against the
// complex plan on the same real data, and the c2r inverse as an exact
// round trip, across the pow2, mixed-radix, and generic-prime
// paths of both the half-size trick (even n) and the odd fallback.
func TestRPlanMatchesComplexPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 27, 34, 60, 64, 81, 101, 128, 134, 202} {
		rp := NewRPlan(n)
		cp := NewPlan(n)
		x := randReal(rng, n)
		want := widen(x)
		cp.Forward(want)
		got := make([]complex128, rp.HLen())
		scratch := make([]complex128, rp.scratchLen())
		rp.forwardS(x, got, scratch, 1)
		for k := range got {
			if d := cmplx.Abs(got[k] - want[k]); d > 1e-10*float64(n) {
				t.Fatalf("n=%d k=%d: r2c %v vs complex %v (|Δ|=%g)", n, k, got[k], want[k], d)
			}
		}
		back := make([]float64, n)
		rp.inverseS(got, back, scratch, 1, 1)
		if d := maxDiffReal(back, x); d > 1e-12*float64(n) {
			t.Fatalf("n=%d: c2r round trip off by %g", n, d)
		}
	}
}

// TestRPlan3MatchesPlan3 checks the 3-D r2c forward against the complex
// Plan3 restricted to the packed half spectrum, and the c2r inverse as
// a round trip, across pow2, mixed-radix, odd, and long-prime shapes
// (134 = 2·67 puts a 67-point generic stage at the half length).
func TestRPlan3MatchesPlan3(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := [][3]int{
		{16, 16, 16}, // pow2 (reference-run grid)
		{18, 18, 18}, // mixed radix (LDC domain grid)
		{12, 10, 6},  // anisotropic smooth composites
		{8, 4, 2},    // tiny pow2, lines shorter than a tile
		{3, 5, 7},    // all-odd: z falls back to the full-length path
		{4, 6, 34},   // even z with a dense-DFT half plan (17)
		{4, 6, 134},  // even z with a long-prime half plan (67)
	}
	for _, sh := range shapes {
		nx, ny, nz := sh[0], sh[1], sh[2]
		rp := NewRPlan3(nx, ny, nz)
		cp := NewPlan3(nx, ny, nz)
		nzh := nz/2 + 1
		x := randReal(rng, rp.Size())
		full := widen(x)
		cp.Forward(full)
		half := make([]complex128, rp.HSize())
		rp.Forward(x, half)
		for ix := 0; ix < nx; ix++ {
			for iy := 0; iy < ny; iy++ {
				for iz := 0; iz < nzh; iz++ {
					got := half[(ix*ny+iy)*nzh+iz]
					want := full[(ix*ny+iy)*nz+iz]
					if d := cmplx.Abs(got - want); d > 1e-9 {
						t.Fatalf("shape %v at (%d,%d,%d): r2c %v vs complex %v (|Δ|=%g)",
							sh, ix, iy, iz, got, want, d)
					}
				}
			}
		}
		back := make([]float64, rp.Size())
		rp.Inverse(half, back)
		if d := maxDiffReal(back, x); d > 1e-12 {
			t.Fatalf("shape %v: 3-D c2r round trip off by %g", sh, d)
		}
	}
}

// TestRPlan3Flops pins the accounting claim: the real plan's modelled
// operation count must be well under the complex plan's — that is what
// the fft/3d-real perf phase reports.
func TestRPlan3Flops(t *testing.T) {
	for _, sh := range [][3]int{{16, 16, 16}, {18, 18, 18}, {32, 32, 32}} {
		rp := NewRPlan3(sh[0], sh[1], sh[2])
		cp := NewPlan3(sh[0], sh[1], sh[2])
		if rf, cf := rp.flops, cp.full.fwd.flops; rf <= 0 || rf > cf*2/3 {
			t.Fatalf("shape %v: real plan models %d flops vs complex %d — expected ≤ 2/3", sh, rf, cf)
		}
	}
}

// TestCachedR3 checks the process-wide real-plan cache returns one plan
// per shape and stays correct under concurrent lookup and use (run
// under -race).
func TestCachedR3(t *testing.T) {
	a := CachedR3(18, 18, 18)
	if b := CachedR3(18, 18, 18); a != b {
		t.Fatal("CachedR3 returned distinct plans for the same shape")
	}
	if c := CachedR3(18, 18, 12); c == a {
		t.Fatal("CachedR3 returned the same plan for distinct shapes")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := CachedR3(12, 10, 6)
			x := randReal(rng, p.Size())
			half := make([]complex128, p.HSize())
			back := make([]float64, p.Size())
			for it := 0; it < 4; it++ {
				p.Forward(x, half)
				p.Inverse(half, back)
				if d := maxDiffReal(back, x); d > 1e-11 {
					t.Errorf("concurrent cached real plan round trip off by %g", d)
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestR2CZeroAllocs extends the allocation guard to the real-transform
// hot paths: once the scratch and arena pools are warm, r2c/c2r
// transforms must not allocate.
func TestR2CZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, sh := range allocShapes {
		p := NewRPlan3(sh[0], sh[1], sh[2])
		rng := rand.New(rand.NewSource(14))
		src := randReal(rng, p.Size())
		dst := make([]complex128, p.HSize())
		out := make([]float64, p.Size())
		// Warm the scratch, arena, and job pools.
		p.Forward(src, dst)
		p.Inverse(dst, out)
		allocs := testing.AllocsPerRun(10, func() {
			p.Forward(src, dst)
			p.Inverse(dst, out)
		})
		if allocs > 0 {
			t.Errorf("shape %v: real hot path allocates %.1f objects per run, want 0", sh, allocs)
		}
	}
}
