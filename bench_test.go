package qmd

// Ablation benchmarks for the design choices of DESIGN.md §4 that live
// above a single package. The paper's tables and figures are not here:
// they are expmatrix specs run by cmd/qmdexp.

import (
	"math"
	"testing"

	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/multigrid"
	"ldcdft/internal/pw"
)

// BenchmarkMixingAblation compares the two density-mixing schemes on a
// REAL LDC-DFT solve — the SCF robustness machinery behind the paper's
// convergence claims (§1). The reported metric is SCF iterations to the
// same tolerance.
func BenchmarkMixingAblation(b *testing.B) {
	run := func(anderson bool) (int, error) {
		sys := BuildSiC(1)
		eng, err := NewLDCEngine(sys, LDCConfig{
			GridN: 24, DomainsPerAxis: 2, BufN: 2, Ecut: 4.0,
			KT: 0.05, MixAlpha: 0.3, Anderson: anderson,
			MaxSCF: 100, EigenIters: 4, Seed: 1,
			EnergyTol: 1e-5, DensityTol: 1e-4,
		})
		if err != nil {
			return 0, err
		}
		res, err := eng.Solve()
		if err != nil {
			return res.Iterations, err
		}
		return res.Iterations, nil
	}
	type variant struct {
		name     string
		anderson bool
	}
	for _, v := range []variant{{"linear", false}, {"anderson", true}} {
		b.Run(v.name, func(b *testing.B) {
			var iters int
			var err error
			for i := 0; i < b.N; i++ {
				iters, err = run(v.anderson)
			}
			if err != nil {
				b.Logf("%s: did not converge in %d iterations (%v)", v.name, iters, err)
			}
			b.ReportMetric(float64(iters), "scf-iterations")
		})
	}
}

// BenchmarkGSLFPoisson is the §3.2 GSLF ablation: the globally scalable
// multigrid Poisson path vs the locally fast FFT path, solving the same
// periodic Hartree problem. FFT wins in a single address space (which is
// why domains use it); multigrid's O(1) V-cycle count and tree locality
// are what scale across nodes (which is why the global solve uses it).
func BenchmarkGSLFPoisson(b *testing.B) {
	const n = 32
	g := grid.New(n, 12)
	rho := grid.NewField(g)
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				p := geom.Vec3{X: float64(ix), Y: float64(iy), Z: float64(iz)}.Scale(g.H())
				rho.Data[g.Index(ix, iy, iz)] = math.Sin(2*math.Pi*p.X/12) * math.Cos(2*math.Pi*p.Y/12)
			}
		}
	}
	b.Run("multigrid-global-path", func(b *testing.B) {
		s, err := multigrid.NewSolver(g, multigrid.Options{Tol: 1e-8})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := s.SolvePoisson(rho); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fft-local-path", func(b *testing.B) {
		basis, err := pw.NewBasis(g, 2.0)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			pw.HartreeFFT(basis, rho.Data)
		}
	})
}

// BenchmarkDomainSizeOptimality verifies the §3.1 cost model: the optimal
// core length l* = 2b/(ν−1) minimizes Tcomp over a scan.
func BenchmarkDomainSizeOptimality(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		best = bestCoreLengthScan(100, 3.0, 2.0)
	}
	b.ReportMetric(best, "scanned-lstar")
	b.ReportMetric(2*3.0/(2.0-1), "analytic-lstar")
}

// bestCoreLengthScan scans Tcomp over l and returns the minimizer.
func bestCoreLengthScan(L, buf, nu float64) float64 {
	bestL, bestT := 0.0, math.Inf(1)
	for l := 0.5; l <= 30; l += 0.01 {
		if t := tcompModel(L, l, buf, nu); t < bestT {
			bestL, bestT = l, t
		}
	}
	return bestL
}

func tcompModel(L, l, buf, nu float64) float64 {
	nd := L / l
	return nd * nd * nd * math.Pow(l+2*buf, 3*nu)
}
