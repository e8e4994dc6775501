package core

import (
	"math"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/perf"
)

// TestSCFStepWorkerInvariance: the parallel density assembly (and domain
// solves) must be bitwise independent of the worker count — every domain
// computes its own bands and writes a disjoint core region of the global
// density.
func TestSCFStepWorkerInvariance(t *testing.T) {
	run := func(workers int) []float64 {
		sys := atoms.BuildSiC(1)
		cfg := sicConfig(ModeLDC, 2, 2)
		cfg.Workers = workers
		e, err := NewEngine(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for it := 0; it < 2; it++ {
			rhoOut, _, err := e.SCFStep()
			if err != nil {
				t.Fatal(err)
			}
			e.mixer.Mix([][]float64{e.Rho.Data}, [][]float64{rhoOut.Data})
			out = rhoOut.Data
		}
		return out
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if d := math.Abs(serial[i] - parallel[i]); d > 1e-14 {
			t.Fatalf("rho[%d] differs by %g between Workers=1 and Workers=8", i, d)
		}
	}
}

// TestSCFStepReusesLocalDensityBuffers: the streamed stages must not
// allocate fresh grid.Fields per domain visit — every workspace keeps
// its scratch fields, and every domain keeps its ρα history buffer,
// across SCF steps.
func TestSCFStepReusesLocalDensityBuffers(t *testing.T) {
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeLDC, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, _, err := e.SCFStep(); err != nil {
		t.Fatal(err)
	}
	wsFirst := make([]*float64, len(e.ws))
	for i, ws := range e.ws {
		wsFirst[i] = &ws.rhoLocal.Data[0]
	}
	prevFirst := make([]*float64, len(e.states))
	for i, st := range e.states {
		if st.rhoPrev != nil {
			prevFirst[i] = &st.rhoPrev.Data[0]
		}
	}
	if _, _, err := e.SCFStep(); err != nil {
		t.Fatal(err)
	}
	for i, ws := range e.ws {
		if &ws.rhoLocal.Data[0] != wsFirst[i] {
			t.Fatalf("workspace %d reallocated rhoLocal on the second step", i)
		}
	}
	for i, st := range e.states {
		if st.rhoPrev != nil && &st.rhoPrev.Data[0] != prevFirst[i] {
			t.Fatalf("domain %d reallocated its density history on the second step", i)
		}
	}
}

// TestSCFStepRecordsPhases: one SCF step must record a span (and for the
// FLOP-bearing stages, a nonzero operation count) on every stage phase of
// the Fig. 2 loop. Its domains take the dense path, where HΨ, the density
// and the core weights run in the plane-wave basis: the only transforms
// are real ones, and no complex fft/3d runs at all.
func TestSCFStepRecordsPhases(t *testing.T) {
	perf.Global.Reset()
	perf.Default.Reset()
	defer perf.Global.Reset()
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeLDC, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	perf.Default.Reset() // discard construction-time kernel activity
	if _, _, err := e.SCFStep(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"scf/hartree-multigrid",
		"scf/domain-solves",
		"scf/chemical-potential",
		"scf/density-assembly",
		"scf/eigensolver",
		"pw/apply-hamiltonian",
		"pw/orthonormalize",
		"fft/3d-real",
		"multigrid/poisson",
	} {
		p := perf.GetPhase(name)
		if p.Calls() == 0 {
			t.Errorf("phase %s recorded no spans", name)
		}
		if p.Total() <= 0 {
			t.Errorf("phase %s recorded no time", name)
		}
	}
	for _, name := range []string{
		"scf/hartree-multigrid", "scf/domain-solves", "scf/density-assembly",
		"scf/eigensolver", "pw/apply-hamiltonian", "fft/3d-real", "multigrid/poisson",
	} {
		if p := perf.GetPhase(name); p.Flops() <= 0 {
			t.Errorf("phase %s attributed no flops", name)
		}
	}
	if n := perf.GetPhase("fft/3d").Calls(); n != 0 {
		t.Errorf("a dense-path SCF step ran %d complex 3-D transforms, want 0", n)
	}
	snap := perf.Default.Snapshot()
	if len(snap) < 9 {
		t.Fatalf("snapshot has %d phases, want >= 9", len(snap))
	}
}

// TestSolveHistoryReportsExpansions: StepResult.EigenExpansions counts
// the expansions the domain eigensolves ran. The first SCF step refines
// every domain to round-off, so it runs the EigenIters cap in each; later
// steps stop at a residual set by the density change, and some run fewer.
// Each
// domain solve applies H once to Ψ and once per expansion, so the
// pw/apply-hamiltonian calls of the solve are the count's witness.
func TestSolveHistoryReportsExpansions(t *testing.T) {
	if testing.Short() {
		t.Skip("full SCF solve")
	}
	cfg := goldenConfig(16, 2, 2)
	e, err := NewEngine(atoms.BuildSiC(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	apply := perf.GetPhase("pw/apply-hamiltonian")
	before := apply.Calls()
	res, err := e.Solve()
	if err != nil {
		t.Fatal(err)
	}
	applies := apply.Calls() - before
	occ := e.OccupiedDomains()
	first := res.History[0].EigenExpansions
	if want := cfg.EigenIters * occ; first != want {
		t.Errorf("first SCF step reports %d expansions, want EigenIters × occupied domains = %d", first, want)
	}
	fewest := first
	var want int64
	for _, step := range res.History {
		fewest = min(fewest, step.EigenExpansions)
		want += int64(occ + step.EigenExpansions)
	}
	if fewest >= first {
		t.Errorf("no later SCF step reports fewer expansions than the first's %d", first)
	}
	if applies != want {
		t.Errorf("%d HΨ applies in %d SCF steps, the history's expansions account for %d", applies, res.Iterations, want)
	}
}
