package fft

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// boxSupport lists the grid points whose folded index is within the
// half-widths (mx, my, mz) on each axis: i ≤ m or i ≥ N−m.
func boxSupport(p *Plan3, mx, my, mz int) []int {
	in := func(i, n, m int) bool { return i <= m || i >= n-m }
	var idx []int
	for ix := 0; ix < p.Nx; ix++ {
		for iy := 0; iy < p.Ny; iy++ {
			for iz := 0; iz < p.Nz; iz++ {
				if in(ix, p.Nx, mx) && in(iy, p.Ny, my) && in(iz, p.Nz, mz) {
					idx = append(idx, (ix*p.Ny+iy)*p.Nz+iz)
				}
			}
		}
	}
	return idx
}

// sphereSupport lists the grid points with folded |m|² ≤ r2 — the shape
// of a plane-wave basis, whose sticks are fewer than its bounding box's.
func sphereSupport(p *Plan3, r2 int) []int {
	fold := func(i, n int) int {
		if i <= n/2 {
			return i
		}
		return i - n
	}
	var idx []int
	for ix := 0; ix < p.Nx; ix++ {
		for iy := 0; iy < p.Ny; iy++ {
			for iz := 0; iz < p.Nz; iz++ {
				mx, my, mz := fold(ix, p.Nx), fold(iy, p.Ny), fold(iz, p.Nz)
				if mx*mx+my*my+mz*mz <= r2 {
					idx = append(idx, (ix*p.Ny+iy)*p.Nz+iz)
				}
			}
		}
	}
	return idx
}

// sparseGrids returns nb packed grids that hold random coefficients on
// idx. dense has exact zeros everywhere else; pruned is cleared with
// ClearSticks only and keeps NaN wherever the pruned inverse must not
// look.
func sparseGrids(rng *rand.Rand, s *Support3, idx []int, nb int) (dense, pruned []complex128) {
	size := s.p.Size()
	dense = make([]complex128, nb*size)
	pruned = make([]complex128, nb*size)
	nan := complex(math.NaN(), math.NaN())
	for i := range pruned {
		pruned[i] = nan
	}
	for g := 0; g < nb; g++ {
		s.ClearSticks(pruned[g*size : (g+1)*size])
		for _, i := range idx {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			dense[g*size+i] = v
			pruned[g*size+i] = v
		}
	}
	return dense, pruned
}

func checkAll(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if !bitwiseEq(got[i], want[i]) {
			t.Fatalf("%s: pruned differs from dense at %d: %v vs %v", what, i, got[i], want[i])
		}
	}
}

func checkAt(t *testing.T, what string, got, want []complex128, idx []int, nb, size int) {
	t.Helper()
	for g := 0; g < nb; g++ {
		for _, i := range idx {
			if !bitwiseEq(got[g*size+i], want[g*size+i]) {
				t.Fatalf("%s: pruned differs from dense at grid %d point %d: %v vs %v",
					what, g, i, got[g*size+i], want[g*size+i])
			}
		}
	}
}

// checkPrunedEqualsDense runs every Support3 method against the Plan3
// method it prunes: every output of the inverses, and every support
// point of the forwards, must match bit for bit (±0 compare equal).
func checkPrunedEqualsDense(t *testing.T, rng *rand.Rand, p *Plan3, idx []int, what string) {
	t.Helper()
	const nb = 3
	size := p.Size()
	s := p.NewSupport(idx)
	vr := make([]float64, size)
	for i := range vr {
		vr[i] = rng.NormFloat64()
	}

	dense, pruned := sparseGrids(rng, s, idx, 1)
	p.Inverse(dense)
	s.Inverse(pruned)
	checkAll(t, what+" Inverse", pruned, dense)

	dense, pruned = sparseGrids(rng, s, idx, nb)
	p.InverseBatch(dense, nb)
	s.InverseBatch(pruned, nb)
	checkAll(t, what+" InverseBatch", pruned, dense)

	dense, pruned = sparseGrids(rng, s, idx, 1)
	p.InverseRawMulReal(dense, vr)
	s.InverseRawMulReal(pruned, vr)
	checkAll(t, what+" InverseRawMulReal", pruned, dense)

	dense, pruned = sparseGrids(rng, s, idx, nb)
	p.InverseRawMulRealBatch(dense, nb, vr)
	s.InverseRawMulRealBatch(pruned, nb, vr)
	checkAll(t, what+" InverseRawMulRealBatch", pruned, dense)

	dense = randVec(rng, size)
	pruned = append([]complex128(nil), dense...)
	p.Forward(dense)
	s.Forward(pruned)
	checkAt(t, what+" Forward", pruned, dense, idx, 1, size)

	dense = randVec(rng, nb*size)
	pruned = append([]complex128(nil), dense...)
	p.ForwardBatch(dense, nb)
	s.ForwardBatch(pruned, nb)
	checkAt(t, what+" ForwardBatch", pruned, dense, idx, nb, size)
}

// TestSupportBitwiseEqualsDense is the pruning contract: over pow2 and
// mixed-radix lengths, a non-cubic grid, every half-width from one point
// to the whole axis, and on both the inline (GOMAXPROCS = 1) and pooled
// paths, skipping the lines outside the support changes no bit.
func TestSupportBitwiseEqualsDense(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := [][3]int{{10, 10, 10}, {12, 12, 12}, {16, 16, 16}, {18, 18, 18}, {20, 20, 20}, {10, 12, 18}}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(int64(12 + procs)))
		for _, sh := range shapes {
			p := NewPlan3(sh[0], sh[1], sh[2])
			for m := 0; m <= max(sh[0], sh[1], sh[2])/2; m++ {
				idx := boxSupport(p, min(m, sh[0]/2), min(m, sh[1]/2), min(m, sh[2]/2))
				checkPrunedEqualsDense(t, rng, p, idx, fmt.Sprintf("procs %d shape %v box %d", procs, sh, m))
			}
			for _, r2 := range []int{0, 1, 5, 6, 14} {
				checkPrunedEqualsDense(t, rng, p, sphereSupport(p, r2), fmt.Sprintf("procs %d shape %v sphere %d", procs, sh, r2))
			}
		}
	}
}

// TestSupportLineCounts pins the work a pruned transform does at the two
// LDC domain shapes of the benchmark (a 57-wave sphere on 12³, a 33-wave
// one on 10³), as the flop model reports it, and that a support touching
// N/2 on every axis prunes nothing.
func TestSupportLineCounts(t *testing.T) {
	for _, c := range []struct {
		n, r2, np, box, lines int
	}{
		// sticks + occupied planes × N + N²
		{n: 12, r2: 5, np: 57, box: 25 + 5*12 + 144, lines: 21 + 5*12 + 144},
		{n: 10, r2: 4, np: 33, box: 25 + 5*10 + 100, lines: 13 + 5*10 + 100},
	} {
		p := NewPlan3(c.n, c.n, c.n)
		idx := sphereSupport(p, c.r2)
		if len(idx) != c.np {
			t.Fatalf("N=%d: sphere holds %d points, want %d", c.n, len(idx), c.np)
		}
		s := p.NewSupport(idx)
		want := int64(c.lines) * flops(c.n)
		if s.InverseFlops() != want || s.ForwardFlops() != want {
			t.Errorf("N=%d sphere: flops inv %d fwd %d, want %d lines = %d (dense %d)",
				c.n, s.InverseFlops(), s.ForwardFlops(), c.lines, want, p.full.fwd.flops)
		}
		s = p.NewSupport(boxSupport(p, 2, 2, 2))
		if want = int64(c.box) * flops(c.n); s.InverseFlops() != want || s.ForwardFlops() != want {
			t.Errorf("N=%d box: flops inv %d fwd %d, want %d lines = %d", c.n, s.InverseFlops(), s.ForwardFlops(), c.box, want)
		}
		s = p.NewSupport(boxSupport(p, c.n/2, c.n/2, c.n/2))
		if s.InverseFlops() != p.full.fwd.flops || s.ForwardFlops() != p.full.fwd.flops {
			t.Errorf("N=%d: full support models %d/%d flops, dense plan %d", c.n, s.InverseFlops(), s.ForwardFlops(), p.full.fwd.flops)
		}
	}
}

// TestSupportZeroAllocs extends TestApplyZeroAllocs to the pruned
// methods: once the arena pool is warm they must not allocate.
func TestSupportZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(3))
	for _, sh := range allocShapes {
		p := NewPlan3(sh[0], sh[1], sh[2])
		s := p.NewSupport(sphereSupport(p, 5))
		x := randVec(rng, 4*p.Size())
		vr := make([]float64, p.Size())
		s.ForwardBatch(x, 4) // warm the arena and job pools
		s.InverseBatch(x, 4)
		allocs := testing.AllocsPerRun(10, func() {
			s.ClearSticks(x[:p.Size()])
			s.Inverse(x[:p.Size()])
			s.InverseRawMulReal(x[:p.Size()], vr)
			s.Forward(x[:p.Size()])
			s.InverseBatch(x, 4)
			s.InverseRawMulRealBatch(x, 4, vr)
			s.ForwardBatch(x, 4)
		})
		if allocs > 0 {
			t.Errorf("shape %v: pruned hot path allocates %.1f objects per run, want 0", sh, allocs)
		}
	}
}
