package reactive

import (
	"math/rand"
	"testing"

	"ldcdft/internal/atoms"
)

// BenchmarkComputeForces measures one reactive force evaluation on the
// paper's smallest production system size class (~600 atoms).
func BenchmarkComputeForces(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sys, err := atoms.BuildLiAlInWater(atoms.LiAlParticleSpec{PairCount: 20}, rng)
	if err != nil {
		b.Fatal(err)
	}
	f := NewField()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Compute(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTakeCensus(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sys, err := atoms.BuildLiAlInWater(atoms.LiAlParticleSpec{PairCount: 20}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TakeCensus(sys)
	}
}

// BenchmarkProductionStep is one step of the production trajectory at the
// benchmark's size (PairCount 30, ≈ 1 500 atoms, 600 K), averaged over 200
// steps so the Verlet rebuilds (about one step in ten) are amortised in.
func BenchmarkProductionStep(b *testing.B) {
	const steps = 200
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := atoms.BuildLiAlInWater(atoms.LiAlParticleSpec{PairCount: 30}, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := RunProduction(sys, ProductionConfig{TempK: 600, Steps: steps, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}
