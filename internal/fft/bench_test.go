package fft

import (
	"math/rand"
	"testing"
)

func benchVec(n int) []complex128 {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// The §4.2 FFT ablation: the tuned engine vs the naive reference (the
// role FFTW-unvectorized vs Spiral played on Blue Gene/Q).
func BenchmarkForwardPow2(b *testing.B)       { benchForward(b, 64) }
func BenchmarkForwardMixedRadix(b *testing.B) { benchForward(b, 60) } // 2²·3·5

func benchForward(b *testing.B, n int) {
	p := NewPlan(n)
	x, scratch := benchVec(n), make([]complex128, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.forwardS(x, scratch, 1)
	}
}

func BenchmarkSlowDFTReference(b *testing.B) {
	x := benchVec(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SlowDFT(x)
	}
}

func BenchmarkPlan3Domain18(b *testing.B) {
	// The typical LDC domain grid (core 12 + 2×3 buffer).
	p := NewPlan3(18, 18, 18)
	x := benchVec(p.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
		p.Inverse(x)
	}
}

// Benchmark3DBatch measures the batched grid pipeline on the reference-
// run shape (16³, 16 bands per call — one eigensolver ApplyAll's worth
// of transforms). The steady-state path must not allocate.
func Benchmark3DBatch(b *testing.B) {
	const nb = 16
	p := Cached3(16, 16, 16)
	x := benchVec(nb * p.Size())
	p.ForwardBatch(x, nb) // warm the arena pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForwardBatch(x, nb)
		p.InverseBatch(x, nb)
	}
	b.StopTimer()
	gflop := float64(2*nb*p.full.fwd.flops) * float64(b.N) / 1e9
	b.ReportMetric(gflop/b.Elapsed().Seconds(), "GFLOP/s")
}

// Benchmark3DBatchPruned vs Benchmark3DBatchDense is the sphere-pruning
// win at the two LDC domain shapes of the end-to-end benchmark: 14 bands
// of a 57-wave sphere on 12³ (qmd-sic8) and of a 33-wave sphere on 10³
// (qmd-27dom), one inverse + forward batch per iteration — an HΨ's worth
// of transforms. Same line kernels, same data; the ratio is the share of
// lines skipped and does not depend on the machine.
var domainShapes = []struct {
	name  string
	n, r2 int
}{{"g12", 12, 5}, {"g10", 10, 4}}

func Benchmark3DBatchPruned(b *testing.B) { bench3DBatchDomain(b, true) }
func Benchmark3DBatchDense(b *testing.B)  { bench3DBatchDomain(b, false) }

func bench3DBatchDomain(b *testing.B, pruned bool) {
	const nb = 14
	for _, sh := range domainShapes {
		b.Run(sh.name, func(b *testing.B) {
			p := Cached3(sh.n, sh.n, sh.n)
			s := &p.full
			if pruned {
				s = p.NewSupport(sphereSupport(p, sh.r2))
			}
			x := benchVec(nb * p.Size())
			s.ForwardBatch(x, nb) // warm the arena pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.InverseBatch(x, nb)
				s.ForwardBatch(x, nb)
			}
			b.StopTimer()
			gflop := float64(nb*(s.InverseFlops()+s.ForwardFlops())) * float64(b.N) / 1e9
			b.ReportMetric(gflop/b.Elapsed().Seconds(), "GFLOP/s")
		})
	}
}

func BenchmarkPlan3Pow2_32(b *testing.B) {
	p := NewPlan3(32, 32, 32)
	x := benchVec(p.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
		p.Inverse(x)
	}
}

func benchRealVec(n int) []float64 {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// BenchmarkRPlan3 measures a real-field forward+inverse round trip on
// the same 32³ shape as BenchmarkPlan3Pow2_32 — the headline r2c-vs-
// complex comparison for density/potential grids.
func BenchmarkRPlan3(b *testing.B) {
	p := NewRPlan3(32, 32, 32)
	x := benchRealVec(p.Size())
	half := make([]complex128, p.HSize())
	p.Forward(x, half) // warm the scratch pools
	p.Inverse(half, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x, half)
		p.Inverse(half, x)
	}
	b.StopTimer()
	gflop := float64(2*p.flops) * float64(b.N) / 1e9
	b.ReportMetric(gflop/b.Elapsed().Seconds(), "GFLOP/s")
}
