package multigrid

import (
	"math/rand"
	"testing"

	"ldcdft/internal/grid"
)

// Reference implementations with the per-point wrapMul the production
// loops peeled away: smooth and computeResidual must stay bitwise
// identical to these (Gauss–Seidel update order included).

func smoothRef(lev *level) {
	n, h2 := lev.n, lev.h2
	v, f := lev.v, lev.f
	for parity := 0; parity < 2; parity++ {
		for ix := 0; ix < n; ix++ {
			xm := wrapMul(ix-1, n) * n * n
			xp := wrapMul(ix+1, n) * n * n
			x0 := ix * n * n
			for iy := 0; iy < n; iy++ {
				ym := wrapMul(iy-1, n) * n
				yp := wrapMul(iy+1, n) * n
				y0 := iy * n
				iz0 := (parity + ix + iy) & 1
				for iz := iz0; iz < n; iz += 2 {
					zm := wrapMul(iz-1, n)
					zp := wrapMul(iz+1, n)
					sum := v[xm+y0+iz] + v[xp+y0+iz] +
						v[x0+ym+iz] + v[x0+yp+iz] +
						v[x0+y0+zm] + v[x0+y0+zp]
					v[x0+y0+iz] = (sum - h2*f[x0+y0+iz]) / 6
				}
			}
		}
	}
}

func computeResidualRef(lev *level) {
	n, h2 := lev.n, lev.h2
	v, f, r := lev.v, lev.f, lev.r
	for ix := 0; ix < n; ix++ {
		xm := wrapMul(ix-1, n) * n * n
		xp := wrapMul(ix+1, n) * n * n
		x0 := ix * n * n
		for iy := 0; iy < n; iy++ {
			ym := wrapMul(iy-1, n) * n
			yp := wrapMul(iy+1, n) * n
			y0 := iy * n
			for iz := 0; iz < n; iz++ {
				zm := wrapMul(iz-1, n)
				zp := wrapMul(iz+1, n)
				lap := (v[xm+y0+iz] + v[xp+y0+iz] +
					v[x0+ym+iz] + v[x0+yp+iz] +
					v[x0+y0+zm] + v[x0+y0+zp] - 6*v[x0+y0+iz]) / h2
				r[x0+y0+iz] = f[x0+y0+iz] - lap
			}
		}
	}
}

func randLevel(rng *rand.Rand, n int) *level {
	lev := &level{n: n, h2: 0.25, v: make([]float64, n*n*n),
		f: make([]float64, n*n*n), r: make([]float64, n*n*n)}
	for i := range lev.v {
		lev.v[i] = rng.NormFloat64()
		lev.f[i] = rng.NormFloat64()
	}
	return lev
}

func cloneLevel(lev *level) *level {
	c := &level{n: lev.n, h2: lev.h2,
		v: append([]float64(nil), lev.v...),
		f: append([]float64(nil), lev.f...),
		r: append([]float64(nil), lev.r...)}
	return c
}

// TestStencilsBitwiseIdentical pins the boundary-plane peeling in smooth
// and computeResidual to the per-point wrapMul reference: exact equality,
// across sizes down to the degenerate n = 1 and n = 2 wraps.
func TestStencilsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24} {
		a := randLevel(rng, n)
		b := cloneLevel(a)
		for sweep := 0; sweep < 3; sweep++ {
			smooth(a)
			smoothRef(b)
			for i := range a.v {
				if a.v[i] != b.v[i] {
					t.Fatalf("n=%d sweep %d: smooth diverges from reference at %d: %v vs %v",
						n, sweep, i, a.v[i], b.v[i])
				}
			}
			computeResidual(a)
			computeResidualRef(b)
			for i := range a.r {
				if a.r[i] != b.r[i] {
					t.Fatalf("n=%d sweep %d: residual diverges from reference at %d: %v vs %v",
						n, sweep, i, a.r[i], b.r[i])
				}
			}
		}
	}
}

// The sweeps, the transfer operators and a whole V-cycle allocate
// nothing: the hierarchy is preallocated in NewSolver.
func TestKernelsAllocateNothing(t *testing.T) {
	const n = 48
	fine := randLevel(rand.New(rand.NewSource(7)), n)
	coarse := randLevel(rand.New(rand.NewSource(8)), n/2)
	s, err := NewSolver(grid.New(n, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Smooth", func() { smooth(fine) }},
		{"Residual", func() { computeResidual(fine) }},
		{"Restrict", func() { restrictFull(fine.r, coarse.f, fine.n, coarse.n) }},
		{"Prolong", func() { prolongAdd(coarse.v, fine.v, coarse.n, fine.n) }},
		{"VCycle", func() { s.vcycle(0) }},
	} {
		if allocs := testing.AllocsPerRun(3, tc.fn); allocs != 0 {
			t.Errorf("%s at %d³: %v allocs per run, want 0", tc.name, n, allocs)
		}
	}
}
