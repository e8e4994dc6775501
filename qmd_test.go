package qmd

import (
	"math"
	"math/rand"
	"testing"
)

func TestPublicAPISolve(t *testing.T) {
	if testing.Short() {
		t.Skip("full SCF solve is minutes under -race; covered by the full test run")
	}
	sys := BuildSiC(1)
	eng, err := NewLDCEngine(sys, LDCConfig{
		GridN: 24, DomainsPerAxis: 2, BufN: 3, Ecut: 4.0,
		KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxSCF: 100, EigenIters: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(eng.Rho.Integral()-32) > 1e-6 {
		t.Fatalf("electron count %g", eng.Rho.Integral())
	}
}

func TestRunQMDConservesAndCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("QMD is expensive")
	}
	sys := BuildSiC(1)
	sys.InitVelocities(300, rand.New(rand.NewSource(2)))
	cfg := LDCConfig{
		GridN: 24, DomainsPerAxis: 2, BufN: 3, Ecut: 4.0,
		KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxSCF: 80,
		EigenIters: 4, Seed: 1, EnergyTol: 1e-5, DensityTol: 1e-4,
	}
	res, err := RunQMD(sys, cfg, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 || len(res.Energies) != 2 {
		t.Fatalf("steps %d energies %d", res.Steps, len(res.Energies))
	}
	if res.SCFIterations <= 0 {
		t.Fatal("no SCF iterations recorded")
	}
	// Warm start: the second step should need no more SCF iterations
	// than a cold start would (loose sanity: at most MaxSCF).
	for _, e := range res.Energies {
		if math.IsNaN(e) {
			t.Fatal("NaN energy in trajectory")
		}
	}
	if res.FinalSystem.NumAtoms() != 8 {
		t.Fatal("atom count changed")
	}
}

// TestRunQMDFewPlaneWavesPerDomain: 27 domains of 10³ points at Ecut 3
// hold 27 plane waves for up to 14 bands, so the eigensolver's expansion
// block [Ψ, R] wants more columns than the space has. Before the block
// was capped this trajectory (velocity seed 4) died in its first MD step
// with "linalg: eigensolver failed to converge".
func TestRunQMDFewPlaneWavesPerDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("QMD is expensive")
	}
	sys := BuildSiC(1)
	sys.InitVelocities(300, rand.New(rand.NewSource(4)))
	cfg := LDCConfig{
		GridN: 18, DomainsPerAxis: 3, BufN: 2, Ecut: 3, Mode: ModeLDC,
		KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxSCF: 100,
		EigenIters: 4, Seed: 1,
	}
	res, err := RunQMD(sys, cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Energies) != 1 || math.IsNaN(res.Energies[0]) {
		t.Fatalf("energies %v", res.Energies)
	}
}
