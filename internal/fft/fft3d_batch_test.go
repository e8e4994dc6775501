package fft

import (
	"math/rand"
	"sync"
	"testing"
)

// TestBatchMatchesSingle checks that ForwardBatch/InverseBatch on nb
// packed grids reproduce nb independent Forward/Inverse calls bit-for-
// bit-close, over pow2 and mixed-radix shapes (including anisotropic
// grids that exercise all three strided-axis paths).
func TestBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{16, 16, 16}, // pow2 (reference-run grid)
		{18, 18, 18}, // mixed radix 2·3² (LDC domain grid)
		{12, 10, 6},  // anisotropic smooth composites
		{8, 4, 2},    // tiny pow2, lines shorter than a tile
	}
	for _, sh := range shapes {
		for _, nb := range []int{1, 3, 5} {
			p := NewPlan3(sh[0], sh[1], sh[2])
			size := p.Size()
			batch := randVec(rng, nb*size)
			want := make([]complex128, nb*size)
			copy(want, batch)
			for k := 0; k < nb; k++ {
				p.Forward(want[k*size : (k+1)*size])
			}
			p.ForwardBatch(batch, nb)
			if d := maxDiff(batch, want); d > 1e-10 {
				t.Errorf("shape %v nb=%d: ForwardBatch differs from per-grid Forward by %g", sh, nb, d)
			}
			for k := 0; k < nb; k++ {
				p.Inverse(want[k*size : (k+1)*size])
			}
			p.InverseBatch(batch, nb)
			if d := maxDiff(batch, want); d > 1e-10 {
				t.Errorf("shape %v nb=%d: InverseBatch differs from per-grid Inverse by %g", sh, nb, d)
			}
		}
	}
}

// TestCached3 checks the process-wide plan cache returns the same plan
// for the same shape, distinct plans for distinct shapes, and stays
// correct under concurrent lookup and use (run under -race) — dense
// round trips and pruned batches on one shared Support3 interleaved on
// the same plan, arenas and worker pool.
func TestCached3(t *testing.T) {
	a := Cached3(18, 18, 18)
	if b := Cached3(18, 18, 18); a != b {
		t.Fatal("Cached3 returned distinct plans for the same shape")
	}
	if c := Cached3(18, 18, 12); c == a {
		t.Fatal("Cached3 returned the same plan for distinct shapes")
	}
	shared := Cached3(12, 10, 6)
	idx := sphereSupport(shared, 5)
	sup := shared.NewSupport(idx)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := Cached3(12, 10, 6)
			const nb = 3
			dense, pruned := sparseGrids(rng, sup, idx, nb)
			p.InverseBatch(dense, nb)
			sup.InverseBatch(pruned, nb)
			for i := range dense {
				if !bitwiseEq(pruned[i], dense[i]) {
					t.Errorf("concurrent pruned InverseBatch differs from dense at %d", i)
					break
				}
			}
			p.ForwardBatch(dense, nb)
			sup.ForwardBatch(pruned, nb)
			for g := 0; g < nb; g++ {
				for _, i := range idx {
					if k := g*p.Size() + i; !bitwiseEq(pruned[k], dense[k]) {
						t.Errorf("concurrent pruned ForwardBatch differs from dense at %d", k)
						return
					}
				}
			}
			x := randVec(rng, p.Size())
			orig := make([]complex128, len(x))
			copy(orig, x)
			for it := 0; it < 4; it++ {
				p.Forward(x)
				p.Inverse(x)
			}
			if d := maxDiff(x, orig); d > 1e-9 {
				t.Errorf("concurrent cached plan round trip off by %g", d)
			}
		}(int64(w))
	}
	wg.Wait()
}

// allocShapes are the grids the zero-allocation guards run: the reference
// grid, the global and both domain grids of the benchmark, one with a
// generic-butterfly axis (34 = 2·17) and one with a long prime axis (67,
// and 134 = 2·67 for the real plan's half length) — the engine is out of
// place, so every length draws its scratch from the arenas.
var allocShapes = [][3]int{{16, 16, 16}, {18, 18, 18}, {10, 10, 10}, {12, 12, 12}, {10, 10, 34}, {4, 6, 67}, {4, 6, 134}}

// TestApplyZeroAllocs guards the allocation-free hot path: once a plan's
// arena pool is warm, Forward/Inverse and the batched forms must not
// allocate.
func TestApplyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(3))
	for _, sh := range allocShapes {
		p := NewPlan3(sh[0], sh[1], sh[2])
		x := randVec(rng, 4*p.Size())
		// Warm the arena and job pools.
		p.ForwardBatch(x, 4)
		p.InverseBatch(x, 4)
		allocs := testing.AllocsPerRun(10, func() {
			p.Forward(x[:p.Size()])
			p.Inverse(x[:p.Size()])
			p.ForwardBatch(x, 4)
			p.InverseBatch(x, 4)
		})
		if allocs > 0 {
			t.Errorf("shape %v: hot path allocates %.1f objects per run, want 0", sh, allocs)
		}
	}
}
