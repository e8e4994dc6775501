package multigrid

import (
	"math"
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
// for the residual across sizes down to the degenerate n = 1 and n = 2
// wraps of a single-level top grid. Smoothing only runs on levels above
// the coarsest (n ≥ 8), so it is compared from n = 4 up.
func TestStencilsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24} {
		a := randLevel(rng, n)
		b := cloneLevel(a)
		for sweep := 0; sweep < 3; sweep++ {
			if n >= 4 {
				smooth(a)
				smoothRef(b)
			}
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

// restrictFull is the reference of restrict: 3-D full weighting as one
// 27-point stencil (weights 8:4:2:1 over center:face:edge:corner,
// normalized by 64) with a per-point wrapMul.
func restrictFull(fine, coarse []float64, nf, nc int) {
	for cx := 0; cx < nc; cx++ {
		fx := 2 * cx
		for cy := 0; cy < nc; cy++ {
			fy := 2 * cy
			for cz := 0; cz < nc; cz++ {
				fz := 2 * cz
				var sum float64
				for dx := -1; dx <= 1; dx++ {
					wx := 2 - absInt(dx)
					x := wrapMul(fx+dx, nf) * nf * nf
					for dy := -1; dy <= 1; dy++ {
						wy := 2 - absInt(dy)
						y := wrapMul(fy+dy, nf) * nf
						for dz := -1; dz <= 1; dz++ {
							wz := 2 - absInt(dz)
							z := wrapMul(fz+dz, nf)
							sum += float64(wx*wy*wz) * fine[x+y+z]
						}
					}
				}
				coarse[(cx*nc+cy)*nc+cz] = sum / 64
			}
		}
	}
}

func absInt(i int) int {
	if i < 0 {
		return -i
	}
	return i
}

// prolongAdd is the reference of prolong: trilinear interpolation of the
// coarse correction, point by point, added onto the fine solution.
func prolongAdd(coarse, fine []float64, nc, nf int) {
	cAt := func(x, y, z int) float64 {
		return coarse[(wrapMul(x, nc)*nc+wrapMul(y, nc))*nc+wrapMul(z, nc)]
	}
	for fx := 0; fx < nf; fx++ {
		cx := fx / 2
		ox := fx & 1
		for fy := 0; fy < nf; fy++ {
			cy := fy / 2
			oy := fy & 1
			for fz := 0; fz < nf; fz++ {
				cz := fz / 2
				oz := fz & 1
				var val float64
				switch {
				case ox == 0 && oy == 0 && oz == 0:
					val = cAt(cx, cy, cz)
				case ox == 1 && oy == 0 && oz == 0:
					val = 0.5 * (cAt(cx, cy, cz) + cAt(cx+1, cy, cz))
				case ox == 0 && oy == 1 && oz == 0:
					val = 0.5 * (cAt(cx, cy, cz) + cAt(cx, cy+1, cz))
				case ox == 0 && oy == 0 && oz == 1:
					val = 0.5 * (cAt(cx, cy, cz) + cAt(cx, cy, cz+1))
				case ox == 1 && oy == 1 && oz == 0:
					val = 0.25 * (cAt(cx, cy, cz) + cAt(cx+1, cy, cz) +
						cAt(cx, cy+1, cz) + cAt(cx+1, cy+1, cz))
				case ox == 1 && oy == 0 && oz == 1:
					val = 0.25 * (cAt(cx, cy, cz) + cAt(cx+1, cy, cz) +
						cAt(cx, cy, cz+1) + cAt(cx+1, cy, cz+1))
				case ox == 0 && oy == 1 && oz == 1:
					val = 0.25 * (cAt(cx, cy, cz) + cAt(cx, cy+1, cz) +
						cAt(cx, cy, cz+1) + cAt(cx, cy+1, cz+1))
				default:
					val = 0.125 * (cAt(cx, cy, cz) + cAt(cx+1, cy, cz) +
						cAt(cx, cy+1, cz) + cAt(cx+1, cy+1, cz) +
						cAt(cx, cy, cz+1) + cAt(cx+1, cy, cz+1) +
						cAt(cx, cy+1, cz+1) + cAt(cx+1, cy+1, cz+1))
				}
				fine[(fx*nf+fy)*nf+fz] += val
			}
		}
	}
}

func maxAbs(xs ...[]float64) float64 {
	var m float64
	for _, x := range xs {
		for _, v := range x {
			m = math.Max(m, math.Abs(v))
		}
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// transferScratch returns the separable passes' intermediate grids for a
// fine grid of nf points per side.
func transferScratch(nf int) (half, quarter []float64) {
	n3 := nf * nf * nf
	return make([]float64, n3/2), make([]float64, n3/4)
}

// The separable transfer passes reorder the reference stencils' sums,
// so they agree to round-off, not bitwise.
func TestTransfersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, nf := range []int{8, 16, 18, 24, 36} {
		nc := nf / 2
		fine := randLevel(rng, nf)
		coarse := randLevel(rng, nc)
		half, quarter := transferScratch(nf)

		got := make([]float64, nc*nc*nc)
		want := make([]float64, nc*nc*nc)
		restrict(fine.f, got, half, quarter, nc)
		restrictFull(fine.f, want, nf, nc)
		if d, bound := maxAbsDiff(got, want), 1e-15*maxAbs(fine.f); d > bound {
			t.Errorf("N=%d: restrict differs from reference by %g > %g", nf, d, bound)
		}

		gotF := append([]float64(nil), fine.v...)
		wantF := append([]float64(nil), fine.v...)
		prolong(coarse.v, gotF, half, quarter, nc)
		prolongAdd(coarse.v, wantF, nc, nf)
		if d, bound := maxAbsDiff(gotF, wantF), 1e-15*maxAbs(coarse.v, fine.v); d > bound {
			t.Errorf("N=%d: prolong differs from reference by %g > %g", nf, d, bound)
		}
	}
}

// The sweeps, the transfer operators and a whole V-cycle — the coarse
// transforms included — allocate nothing: the hierarchy and its scratch
// are preallocated in NewSolver.
func TestKernelsAllocateNothing(t *testing.T) {
	for _, n := range []int{18, 48} {
		fine := randLevel(rand.New(rand.NewSource(7)), n)
		coarse := randLevel(rand.New(rand.NewSource(8)), n/2)
		half, quarter := transferScratch(n)
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
			{"Restrict", func() { restrict(fine.f, coarse.f, half, quarter, coarse.n) }},
			{"Prolong", func() { prolong(coarse.v, fine.v, half, quarter, coarse.n) }},
			{"VCycle", func() { s.vcycle(0) }},
		} {
			if tc.name == "VCycle" && raceEnabled {
				continue // the coarse transforms draw pooled fft scratch
			}
			if allocs := testing.AllocsPerRun(3, tc.fn); allocs != 0 {
				t.Errorf("%s at %d³: %v allocs per run, want 0", tc.name, n, allocs)
			}
		}
	}
}
