package qmd

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
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
	for _, e := range res.Energies {
		if math.IsNaN(e) {
			t.Fatal("NaN energy in trajectory")
		}
	}
	if res.FinalSystem.NumAtoms() != 8 {
		t.Fatal("atom count changed")
	}

	// Warm start: drive the force field itself over the same two steps.
	// Step 2 starts from the density AND the ρα histories step 1 carried;
	// the same positions started from that density alone, every history
	// re-seeded from it, take more iterations.
	ff := &DFTForceField{Cfg: cfg}
	work := sys.Clone()
	in := NewIntegrator(ff, 0)
	if err := in.Step(work); err != nil { // cold priming evaluation, then step 1
		t.Fatal(err)
	}
	rho, before := ff.Density(), ff.SCFIters
	if err := in.Step(work); err != nil {
		t.Fatal(err)
	}
	reseeded := &DFTForceField{Cfg: cfg}
	reseeded.SetDensity(rho)
	if _, _, err := reseeded.Compute(work.Clone()); err != nil {
		t.Fatal(err)
	}
	if carried := ff.SCFIters - before; carried >= reseeded.SCFIters {
		t.Fatalf("step 2: %d SCF iterations from the carried histories, %d re-seeded from ρ alone",
			carried, reseeded.SCFIters)
	}
	t.Logf("step 2: %d SCF iterations carried vs %d re-seeded", ff.SCFIters-before, reseeded.SCFIters)
	if in.PotentialEnergy() != res.Energies[1] {
		t.Fatalf("force field driven by hand ends at %.17g Ha, RunQMD at %.17g", in.PotentialEnergy(), res.Energies[1])
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

// TestRunQMDEcut3Seeds runs the Ecut-3 trajectory of
// TestRunQMDFewPlaneWavesPerDomain — 27 domains of 10³ points, 27 plane
// waves for up to 14 bands, so the eigensolver's expansion block fills
// the whole space — for four MD steps at each of the velocity seeds
// 1–10. Every seed must finish with finite energies; the SCF counts are
// logged for comparison between eigensolver changes.
func TestRunQMDEcut3Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("ten QMD trajectories")
	}
	cfg := LDCConfig{
		GridN: 18, DomainsPerAxis: 3, BufN: 2, Ecut: 3, Mode: ModeLDC,
		KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxSCF: 100,
		EigenIters: 4, Seed: 1,
	}
	for seed := int64(1); seed <= 10; seed++ {
		sys := BuildSiC(1)
		sys.InitVelocities(300, rand.New(rand.NewSource(seed)))
		res, err := RunQMD(sys, cfg, 4, 0)
		if err != nil {
			t.Errorf("velocity seed %d: %v", seed, err)
			continue
		}
		if len(res.Energies) != 4 || slices.ContainsFunc(res.Energies, func(e float64) bool { return math.IsNaN(e) || math.IsInf(e, 0) }) {
			t.Errorf("velocity seed %d: energies %v", seed, res.Energies)
		}
		t.Logf("velocity seed %d: %d SCF iterations over %d steps", seed, res.SCFIterations, res.Steps)
	}
}

// TestRunQMDLeavesNoSpill runs a spilling trajectory to its end: every
// force evaluation's engine must close once its forces are taken, so no
// ldcpsi-* wave-function directory survives the run.
func TestRunQMDLeavesNoSpill(t *testing.T) {
	sys, cfg := tinyH2(4)
	cfg.SpillDir = t.TempDir()
	if _, err := RunQMDOpts(sys, cfg, 2, 0, QMDOptions{}); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(cfg.SpillDir, "ldcpsi-*"))
	if err != nil || len(left) > 0 {
		t.Fatalf("spill directories left behind: %v (err=%v)", left, err)
	}
}
