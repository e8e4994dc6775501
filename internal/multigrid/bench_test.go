package multigrid

import (
	"math"
	"math/rand"
	"testing"

	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
)

// The GSLF ablation (§3.2): the multigrid global Poisson path benchmarked
// at the global-grid sizes the LDC engine uses.
func benchPoisson(b *testing.B, n int) {
	g := grid.New(n, 10)
	s, err := NewSolver(g, Options{Tol: 1e-8})
	if err != nil {
		b.Fatal(err)
	}
	rho := grid.NewField(g)
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				p := geom.Vec3{X: float64(ix), Y: float64(iy), Z: float64(iz)}.Scale(g.H())
				rho.Data[g.Index(ix, iy, iz)] = math.Sin(2*math.Pi*p.X/10) * math.Cos(4*math.Pi*p.Y/10)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolvePoisson(rho); err != nil {
			b.Fatal(err)
		}
	}
}

// Sizes with a large odd coarsest level: 18 halves once to 9³, and 27
// is a single level.
func BenchmarkPoisson18(b *testing.B) { benchPoisson(b, 18) }
func BenchmarkPoisson27(b *testing.B) { benchPoisson(b, 27) }
func BenchmarkPoisson24(b *testing.B) { benchPoisson(b, 24) }
func BenchmarkPoisson48(b *testing.B) { benchPoisson(b, 48) }
func BenchmarkPoisson96(b *testing.B) { benchPoisson(b, 96) }

// Kernel-level benchmarks: the SIMD-shaped smooth/residual pencil kernels
// (stencil.go) against the per-point wrapMul references retained in
// stencil_test.go. The acceptance bar for the vectorized kernels is
// ≥1.5x over the Ref pair.
func benchSweep(b *testing.B, n int, fn func(*level)) {
	b.Helper()
	lev := randLevel(rand.New(rand.NewSource(7)), n)
	b.SetBytes(int64(n * n * n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(lev)
	}
}

func BenchmarkSmooth24(b *testing.B)      { benchSweep(b, 24, smooth) }
func BenchmarkSmooth48(b *testing.B)      { benchSweep(b, 48, smooth) }
func BenchmarkSmoothRef24(b *testing.B)   { benchSweep(b, 24, smoothRef) }
func BenchmarkSmoothRef48(b *testing.B)   { benchSweep(b, 48, smoothRef) }
func BenchmarkResidual24(b *testing.B)    { benchSweep(b, 24, computeResidual) }
func BenchmarkResidual48(b *testing.B)    { benchSweep(b, 48, computeResidual) }
func BenchmarkResidualRef24(b *testing.B) { benchSweep(b, 24, computeResidualRef) }
func BenchmarkResidualRef48(b *testing.B) { benchSweep(b, 48, computeResidualRef) }

// Inter-level transfer operators — the separable passes against their
// 27-point and per-point references — and one whole V-cycle (zero
// allocations per call is TestKernelsAllocateNothing's to assert).
func benchTransfer(b *testing.B, nf int, fn func(fine, coarse *level, half, quarter []float64)) {
	fine := randLevel(rand.New(rand.NewSource(7)), nf)
	coarse := randLevel(rand.New(rand.NewSource(8)), nf/2)
	half, quarter := transferScratch(nf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(fine, coarse, half, quarter)
	}
}

func restrictBench(fine, coarse *level, half, quarter []float64) {
	restrict(fine.f, coarse.f, half, quarter, coarse.n)
}

func restrictRefBench(fine, coarse *level, _, _ []float64) {
	restrictFull(fine.f, coarse.f, fine.n, coarse.n)
}

func prolongBench(fine, coarse *level, half, quarter []float64) {
	prolong(coarse.v, fine.v, half, quarter, coarse.n)
}

func prolongRefBench(fine, coarse *level, _, _ []float64) {
	prolongAdd(coarse.v, fine.v, coarse.n, fine.n)
}

func BenchmarkRestrict18(b *testing.B)    { benchTransfer(b, 18, restrictBench) }
func BenchmarkRestrict48(b *testing.B)    { benchTransfer(b, 48, restrictBench) }
func BenchmarkRestrictRef18(b *testing.B) { benchTransfer(b, 18, restrictRefBench) }
func BenchmarkRestrictRef48(b *testing.B) { benchTransfer(b, 48, restrictRefBench) }
func BenchmarkProlong18(b *testing.B)     { benchTransfer(b, 18, prolongBench) }
func BenchmarkProlong48(b *testing.B)     { benchTransfer(b, 48, prolongBench) }
func BenchmarkProlongRef18(b *testing.B)  { benchTransfer(b, 18, prolongRefBench) }
func BenchmarkProlongRef48(b *testing.B)  { benchTransfer(b, 48, prolongRefBench) }

func BenchmarkVCycle48(b *testing.B) {
	g := grid.New(48, 10)
	s, err := NewSolver(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	top := s.levels[0]
	for i := range top.f {
		top.f[i] = rng.NormFloat64()
	}
	subtractMean(top.f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.vcycle(0)
	}
}
