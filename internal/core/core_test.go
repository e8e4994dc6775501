package core

import (
	"math"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/scf"
)

// sicConfig is the shared small-system configuration: one 8-atom SiC
// conventional cell on a 24³ global grid.
func sicConfig(mode Mode, nd, bufN int) Config {
	return Config{
		GridN:          24,
		DomainsPerAxis: nd,
		BufN:           bufN,
		Ecut:           4.0,
		Mode:           mode,
		KT:             0.05,
		MixAlpha:       0.3,
		Anderson:       true,
		MaxSCF:         80,
		EigenIters:     4,
		Seed:           1,
	}
}

func TestEngineConstruction(t *testing.T) {
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeLDC, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if e.NumDomains() != 8 {
		t.Fatalf("domains = %d, want 8", e.NumDomains())
	}
	if e.DegreesOfFreedom() <= 0 {
		t.Fatal("DoF must be positive")
	}
	// Initial density carries the right charge.
	if got := e.Rho.Integral(); math.Abs(got-32) > 1e-9 {
		t.Fatalf("initial ∫ρ = %g, want 32", got)
	}
}

func TestEngineRejectsBadConfigs(t *testing.T) {
	sys := atoms.BuildSiC(1)
	if _, err := NewEngine(sys, Config{GridN: 0, DomainsPerAxis: 1}); err == nil {
		t.Fatal("zero grid must fail")
	}
	cfg := sicConfig(ModeLDC, 5, 0) // 24 not divisible by 5
	if _, err := NewEngine(sys, cfg); err == nil {
		t.Fatal("indivisible decomposition must fail")
	}
	cfg = sicConfig(ModeLDC, 2, 10) // edge 32 > 24
	if _, err := NewEngine(sys, cfg); err == nil {
		t.Fatal("oversized buffer must fail")
	}
}

func TestSCFStepConservesElectrons(t *testing.T) {
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeLDC, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	rhoOut, step, err := e.SCFStep()
	if err != nil {
		t.Fatal(err)
	}
	if got := rhoOut.Integral(); math.Abs(got-32) > 1e-6 {
		t.Fatalf("assembled ∫ρ = %g, want 32 (μ=%g)", got, step.Mu)
	}
	if step.BandCount == 0 || step.MGCycles == 0 {
		t.Fatal("step diagnostics empty")
	}
	if math.IsNaN(step.Energy) {
		t.Fatal("NaN energy")
	}
}

func TestLDCSolveConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("full SCF solve is expensive")
	}
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeLDC, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Solve()
	if err != nil {
		t.Fatalf("after %d iterations: %v", res.Iterations, err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if got := e.Rho.Integral(); math.Abs(got-32) > 1e-6 {
		t.Fatalf("converged ∫ρ = %g", got)
	}
	forces, err := e.Forces()
	if err != nil {
		t.Fatal(err)
	}
	if len(forces) != 8 {
		t.Fatal("missing forces")
	}
	// Crystal symmetry: forces should be small (not exactly zero due to
	// the DC approximation and finite grids).
	for i, f := range forces {
		if f.Norm() > 2.0 {
			t.Fatalf("unphysically large force %g on atom %d", f.Norm(), i)
		}
	}
}

// TestSolveHistoryReportsResidual: every SCF step records the largest
// eigensolver residual over its domains, which a converging 2×2×2 solve
// never drives to exactly zero at three expansions per step.
func TestSolveHistoryReportsResidual(t *testing.T) {
	e, err := NewEngine(atoms.BuildSiC(1), goldenConfig(16, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range res.History {
		if !(step.MaxResidual > 0) || math.IsInf(step.MaxResidual, 0) {
			t.Errorf("step %d: MaxResidual = %g, want finite and > 0", i+1, step.MaxResidual)
		}
	}
}

func TestDCModeSolves(t *testing.T) {
	if testing.Short() {
		t.Skip("full SCF solve is expensive")
	}
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeDC, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Solve(); err != nil {
		t.Fatalf("DC mode failed: %v", err)
	}
}

// TestLDCBufferConvergence is the Fig. 7 claim at test scale: the error
// vs a single-domain reference decreases with buffer size, and LDC beats
// DC at the same (small) buffer.
func TestLDCBufferConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("buffer sweep is expensive")
	}
	sys := atoms.BuildSiC(1)
	// Reference: single domain, zero buffer — the exact (conventional)
	// result for this grid and energy assembly.
	ref, err := NewEngine(sys, sicConfig(ModeLDC, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Solve()
	if err != nil {
		t.Fatal(err)
	}
	nAtoms := float64(sys.NumAtoms())
	energyAt := func(mode Mode, bufN int) float64 {
		e, err := NewEngine(sys, sicConfig(mode, 2, bufN))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Solve()
		if err != nil {
			t.Fatalf("mode %v buf %d: %v", mode, bufN, err)
		}
		return res.Energy
	}
	errAt := func(mode Mode, bufN int) float64 {
		return math.Abs(energyAt(mode, bufN)-refRes.Energy) / nAtoms
	}
	ldc2 := errAt(ModeLDC, 2)
	ldc4 := errAt(ModeLDC, 4)
	dc2 := errAt(ModeDC, 2)
	t.Logf("per-atom energy error: LDC(b=2)=%.2e LDC(b=4)=%.2e DC(b=2)=%.2e", ldc2, ldc4, dc2)
	if ldc4 > ldc2*1.1 {
		t.Fatalf("LDC error did not shrink with buffer: b=2 → %g, b=4 → %g", ldc2, ldc4)
	}
	if ldc2 > dc2*1.05 {
		t.Fatalf("LDC (%g) not better than DC (%g) at b=2", ldc2, dc2)
	}
}

// The SCF step finds μ from the domain eigenvalues weighted by their core
// fractions (scfstep.go); the weighted electron count must come out exact
// and bad weights must fail.
func TestWeightedChemicalPotential(t *testing.T) {
	eps := []float64{-1, -0.5, 0, 0.5}
	w := []float64{0.5, 0.5, 0.5, 0.5}
	// Capacity = 4 electrons; ask for 2.
	mu, err := scf.ChemicalPotential(eps, w, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var n float64
	for i, e := range eps {
		n += scf.FermiOccupation(e, mu, 0.05) * w[i]
	}
	if math.Abs(n-2) > 1e-8 {
		t.Fatalf("weighted count %g, want 2", n)
	}
	// Errors.
	if _, err := scf.ChemicalPotential(eps, w[:2], 1, 0.05); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if _, err := scf.ChemicalPotential(eps, w, 100, 0.05); err == nil {
		t.Fatal("over-capacity must fail")
	}
}

func TestSingleDomainMatchesConventionalTrend(t *testing.T) {
	// A 1-domain LDC engine and the conventional O(N³) scf.Solve run the
	// same physics with different drivers; their total energies must
	// agree to a loose tolerance (different Hartree solvers, different
	// energy assembly routes).
	if testing.Short() {
		t.Skip("expensive cross-check")
	}
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeLDC, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Solve()
	if err != nil {
		t.Fatal(err)
	}
	conv, err := scf.Solve(sys, scf.Config{
		GridN: 24, Ecut: 4.0, KT: 0.05, MixAlpha: 0.3, Anderson: true,
		MaxIter: 80, EigenIters: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	diffPerAtom := math.Abs(res.Energy-conv.Energy) / 8
	t.Logf("1-domain LDC: %g Ha, conventional: %g Ha, Δ/atom = %g", res.Energy, conv.Energy, diffPerAtom)
	if diffPerAtom > 5e-3 {
		t.Fatalf("single-domain LDC and conventional DFT disagree by %g Ha/atom", diffPerAtom)
	}
}
