package core

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
)

// streaming_test.go pins the workspace-streaming core to the resident-
// solver reference implementation it replaced: the golden energies,
// chemical potentials, SCF iteration counts, and forces below were
// captured from the pre-refactor engine (one resident plane-wave solver
// per domain) on the same configurations. The streamed engine must
// reproduce them to ≤1e-10 Ha / Ha/Bohr — in practice it matches the
// density trajectory bitwise, because every per-domain arithmetic path
// (seeding, boundary potential, diagonalization, band densities) is
// preserved exactly; only the cross-domain reduction order of one
// energy double-counting term changed.
//
// The values were re-pinned once, when the direct subspace eigensolver
// replaced Jacobi and SolveAllBand's expansion block was capped at the
// dimension of the plane-wave space (ISSUE 18, old → new in CHANGES.md).
// 2×2×2 moved by 3e-14 Ha: round-off. 3×3×3 moved by 1.0e-5 Ha and from
// 31 to 26 iterations: its 10³-point domains hold 27 plane waves for 14
// bands, the old values came from a 28-column "orthonormal" block in that
// 27-dimensional space, and the new ones are what a converged eigensolver
// gives at either commit (EigenIters 12: −7.6073557).
//
// Re-pinned a second time when one Stockham engine replaced the in-place
// power-of-two kernel and the mixed-radix recursion, and the inverse's
// three per-axis 1/n passes became one multiply (ISSUE 21, old → new in
// EXPERIMENTS.md): every FFT now sums in a different order. 2×2×2 moved
// by 3.5e-15 Ha and its forces by ≤ 6.5e-15 Ha/Bohr; 3×3×3 by 2.0e-9 Ha
// and ≤ 6.5e-10 Ha/Bohr — the Ecut-3 case whose expansion block fills
// the whole 27-dimensional plane-wave space and answers any change of
// round-off with 3e-9–1e-8 Ha (ISSUE 18). Iteration counts are unchanged
// and GOMAXPROCS 1, 2 and 4 agree bit for bit.
//
// Re-pinned a third time when HΨ on a small basis became one GEMM with
// the dense np×np operator (the 27- and 57-wave domains here) instead of
// two sphere-pruned FFTs per band: the same cyclic convolution, summed
// in another order (old → new in CHANGES.md). 2×2×2 moved by 3.2e-14 Ha
// and its forces by ≤ 4.3e-15 Ha/Bohr; 3×3×3 by 1.2e-9 Ha and
// ≤ 4.2e-9 Ha/Bohr. Iteration counts are unchanged and GOMAXPROCS 1, 2
// and 4 agree bit for bit.
//
// Re-pinned a fourth time when the domain eigensolver stopped redoing
// work: one Rayleigh–Ritz per iteration instead of two, and the
// residual block orthogonalized against Ψ instead of re-orthonormalizing
// all of [Ψ, R] (old → new in CHANGES.md). Both are the same algebra in
// exact arithmetic. 2×2×2 moved by 6.1e-12 Ha and its forces by
// ≤ 1.5e-13 Ha/Bohr; 3×3×3 by 5.2e-9 Ha and ≤ 6.3e-9 Ha/Bohr. Iteration
// counts are unchanged and GOMAXPROCS 1, 2 and 4 agree bit for bit.
//
// Re-pinned a fifth time when a domain visit stopped sending its bands to
// real space: on a small basis ρα is summed from the density matrix
// ΨfΨ† onto the half spectrum and the core weights are ⟨ψ|χ_core|ψ⟩ with
// a dense indicator operator — the same cyclic convolutions, summed in
// another order (old → new in CHANGES.md). 2×2×2 moved by 2.5e-13 Ha and
// its forces by ≤ 4.1e-14 Ha/Bohr; 3×3×3 by 4.7e-9 Ha and ≤ 5.1e-9
// Ha/Bohr. Iteration counts are unchanged and GOMAXPROCS 1, 2 and 4
// agree bit for bit.
//
// Re-pinned a sixth time when Solve's domain eigensolves began to stop
// at a residual of 0.01 × the previous SCF iteration's MaxDrho instead of
// refining every band to round-off on every iteration (old → new in
// EXPERIMENTS.md). That is a change of the arithmetic, not of round-off:
// 2×2×2 moved by 1.2e-8 Ha and its forces by ≤ 1.1e-9 Ha/Bohr; 3×3×3 by
// 9.5e-8 Ha and ≤ 1.6e-8 Ha/Bohr — both far inside their 8.4e-7 and
// 7.9e-6 Ha distance from a tight solve (EigenIters 12, EnergyTol 1e-11,
// DensityTol 1e-8). Iteration counts are unchanged and GOMAXPROCS 1, 2
// and 4 agree bit for bit.
//
// Re-pinned a seventh time when every domain's ρα history joined the
// global density in one Anderson step instead of being damped on its own
// at MixAlpha (old → new in CHANGES.md). The fixed point is the same and
// the path to it is shorter, so the cold solve stops nearer to it:
// 2×2×2 went from 31 to 17 iterations and from −7.5740740487 to
// −7.5740733764 Ha (6.7e-7; forces ≤ 6.9e-7 Ha/Bohr), now 1.7e-7 from a
// tight solve instead of 8.4e-7; 3×3×3 from 26 to 21 iterations and from
// −7.6073557940 to −7.6073467878 Ha (9.0e-6; ≤ 2.4e-6 Ha/Bohr), now
// 1.1e-6 from a tight solve instead of 7.9e-6 (TestSameFixedPoint).
// Linear mixing keeps its bits (linearGolden), and GOMAXPROCS 1, 2 and 4
// agree bit for bit.
//
// These values licence refactors; they do not certify physics. A pin that
// holds says the arithmetic did not change, not that it is right — the
// first 3×3×3 golden certified a non-Hermitian eigenproblem for ten PRs.
// Physics is checked against invariants (ROADMAP item 4); a numerics
// change re-pins here once and shows the move is round-off-sized.

// goldenConfig is the reference configuration the goldens were captured
// with (only the grid and decomposition vary between cases).
func goldenConfig(gridN, nd, bufN int) Config {
	return Config{
		GridN:          gridN,
		DomainsPerAxis: nd,
		BufN:           bufN,
		Ecut:           3.0,
		Mode:           ModeLDC,
		KT:             0.05,
		MixAlpha:       0.3,
		Anderson:       true,
		MaxSCF:         100,
		EigenIters:     3,
		Seed:           1,
	}
}

var streamingGoldens = []struct {
	name       string
	gridN, nd  int
	energy, mu float64
	iters      int
	forces     [][3]float64
}{
	{
		name: "2x2x2", gridN: 16, nd: 2,
		energy: -7.5740733763773029, mu: -0.59538444159630233, iters: 17,
		forces: [][3]float64{
			{-0.42672323117601052, -0.42672352662963042, -0.42672310403633806},
			{-0.42672338195241089, -0.036179632496976144, -0.036180053273292628},
			{-0.036180025252827458, -0.42672377404631551, -0.036180152010671873},
			{-0.036179892214145887, -0.03617959648235336, -0.42672321907159083},
			{-0.020205534890281252, -0.020205557669394351, -0.020205525662414896},
			{-0.020205526819568668, 0.019401874966747789, 0.019401845848484093},
			{0.019401857263343595, -0.020205546807430454, 0.019401847910084615},
			{0.01940185220960931, 0.019401870038431378, -0.020205521000909107},
		},
	},
	{
		name: "3x3x3", gridN: 18, nd: 3,
		energy: -7.6073467877834986, mu: -0.43149903818778851, iters: 21,
		forces: [][3]float64{
			{-0.15146447202342808, -0.15146449186045735, -0.15146448445552127},
			{-0.0042895710931352415, 0.21256690657333996, 0.21256690910962761},
			{0.21256690194660915, -0.0042895757452878214, 0.21256690635393508},
			{0.21256689513699981, 0.21256691427810009, -0.0042895743475047377},
			{-0.087489411826505228, -0.087489392208969438, -0.087489402573026939},
			{-0.091831814595995695, 0.13472831886963893, 0.13472831927422635},
			{0.13472832589276715, -0.09183183129236093, 0.13472834422282115},
			{0.13472832410611643, 0.13472833954504043, -0.091831830218616142},
		},
	},
}

// TestStreamingMatchesResidentGoldens: full SCF solves + forces on the
// reference configurations must reproduce the resident-solver goldens
// bit for bit — including the exact SCF iteration count, which only
// matches if the streamed wave functions persist bit-exactly across
// iterations — and must do so at every processor count: a job requeued
// from an 8-core node to a 2-core one resumes the same trajectory only
// if no reduction's shape depends on GOMAXPROCS.
func TestStreamingMatchesResidentGoldens(t *testing.T) {
	for _, g := range streamingGoldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			if testing.Short() && g.nd > 2 {
				t.Skip("short mode: skipping the 27-domain reference solve")
			}
			for _, procs := range []int{1, 2, 4} {
				t.Run("procs="+strconv.Itoa(procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					sys := atoms.BuildSiC(1)
					e, err := NewEngine(sys, goldenConfig(g.gridN, g.nd, 2))
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					res, err := e.Solve()
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatal("reference solve did not converge")
					}
					if math.Float64bits(res.Energy) != math.Float64bits(g.energy) {
						t.Errorf("energy %.17g is not the resident golden %.17g", res.Energy, g.energy)
					}
					if math.Float64bits(res.Mu) != math.Float64bits(g.mu) {
						t.Errorf("mu %.17g is not the resident golden %.17g", res.Mu, g.mu)
					}
					if res.Iterations != g.iters {
						t.Errorf("SCF took %d iterations, resident reference took %d", res.Iterations, g.iters)
					}
					forces, err := e.Forces()
					if err != nil {
						t.Fatal(err)
					}
					for i, want := range g.forces {
						f := forces[i]
						for c, got := range []float64{f.X, f.Y, f.Z} {
							if math.Float64bits(got) != math.Float64bits(want[c]) {
								t.Errorf("F[%d][%d] = %.17g is not the golden %.17g", i, c, got, want[c])
							}
						}
					}
				})
			}
		})
	}
}

// TestSameFixedPoint: on both golden configurations a tight solve
// (EnergyTol 1e-11, DensityTol 1e-8) lands on the tight energy the
// engine reached when each ρα history was still damped on its own at
// MixAlpha — mixing (ρ, ρα₁ … ρα_M) in one step changes the path, not
// the fixed point — and the default-tolerance cold solve stops within
// 2e-6 Ha of it (the damped histories left the 3×3×3 one 7.9e-6 away).
func TestSameFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: tight reference solves")
	}
	for _, c := range []struct {
		gridN, nd int
		tight     float64 // tight-solve energy with separately damped histories
	}{
		{16, 2, -7.5740732060},
		{18, 3, -7.6073478741},
	} {
		solve := func(tight bool) float64 {
			cfg := goldenConfig(c.gridN, c.nd, 2)
			if tight {
				cfg.EnergyTol, cfg.DensityTol = 1e-11, 1e-8
			}
			e, err := NewEngine(atoms.BuildSiC(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			res, err := e.Solve()
			if err != nil {
				t.Fatalf("%d³ domains, tight %v: %v", c.nd, tight, err)
			}
			return res.Energy
		}
		tight, cold := solve(true), solve(false)
		if d := math.Abs(tight - c.tight); d > 1e-8 {
			t.Errorf("%d³ domains: tight energy %.10f is %.2g Ha from the fixed point %.10f", c.nd, tight, d, c.tight)
		}
		if d := math.Abs(cold - tight); d > 2e-6 {
			t.Errorf("%d³ domains: cold solve %.10f stops %.2g Ha from the tight %.10f", c.nd, cold, d, tight)
		}
	}
}

// linearGolden pins the 2×2×2 golden configuration under linear mixing
// (Anderson off). Linear mixing acts on every point on its own, so the
// ρα histories behind v_bc get the same damping whether they are mixed in
// one step with ρ or apart from it: a change to how the SCF vector is
// mixed keeps these bits unless it changes the linear step itself.
var linearGolden = struct {
	energy, mu float64
	iters      int
	forces     [][3]float64
}{
	energy: -7.574075040338343, mu: -0.59538475549847114, iters: 30,
	forces: [][3]float64{
		{-0.42672378195040161, -0.42672378750149981, -0.42672378473270445},
		{-0.42672376363957087, -0.036179671325026891, -0.036179675984793297},
		{-0.036179686397426275, -0.42672378459079674, -0.036179697990273957},
		{-0.036179688645123803, -0.036179685951596791, -0.42672378100141095},
		{-0.020205591020208403, -0.020205590882905387, -0.020205577492372655},
		{-0.020205590665922864, 0.019401829918592375, 0.019401834329014298},
		{0.019401843666900814, -0.020205595057935934, 0.019401835169228773},
		{0.019401831449521078, 0.019401831735045304, -0.020205594521659886},
	},
}

// TestLinearMixingGolden: the linear-mixing solve reproduces
// linearGolden bit for bit — energy, μ, every force component and the
// iteration count — at GOMAXPROCS 1, 2 and 4.
func TestLinearMixingGolden(t *testing.T) {
	g := linearGolden
	for _, procs := range []int{1, 2, 4} {
		t.Run("procs="+strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := goldenConfig(16, 2, 2)
			cfg.Anderson = false
			e, err := NewEngine(atoms.BuildSiC(1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			res, err := e.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res.Energy) != math.Float64bits(g.energy) {
				t.Errorf("energy %.17g is not the linear golden %.17g", res.Energy, g.energy)
			}
			if math.Float64bits(res.Mu) != math.Float64bits(g.mu) {
				t.Errorf("mu %.17g is not the linear golden %.17g", res.Mu, g.mu)
			}
			if res.Iterations != g.iters {
				t.Errorf("SCF took %d iterations, the linear golden %d", res.Iterations, g.iters)
			}
			forces, err := e.Forces()
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range g.forces {
				f := forces[i]
				for c, got := range []float64{f.X, f.Y, f.Z} {
					if math.Float64bits(got) != math.Float64bits(want[c]) {
						t.Errorf("F[%d][%d] = %.17g is not the linear golden %.17g", i, c, got, want[c])
					}
				}
			}
		})
	}
}

// TestSpillMatchesMemoryBitwise: running with the disk wave-function
// store must reproduce the in-memory run bit-for-bit (the spill round
// trip writes float64 bit patterns verbatim), spill files must exist
// while the engine is live, and Close must remove them.
func TestSpillMatchesMemoryBitwise(t *testing.T) {
	sys := atoms.BuildSiC(1)
	run := func(spill string) (*Engine, []float64, float64) {
		cfg := goldenConfig(16, 2, 2)
		cfg.SpillDir = spill
		e, err := NewEngine(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 4; iter++ {
			rhoOut, _, err := e.SCFStep()
			if err != nil {
				t.Fatal(err)
			}
			e.mixer.Mix([][]float64{e.Rho.Data}, [][]float64{rhoOut.Data})
		}
		return e, append([]float64(nil), e.Rho.Data...), e.LastEnergy
	}

	em, rhoMem, enMem := run("")
	defer em.Close()
	spill := t.TempDir()
	ed, rhoDisk, enDisk := run(spill)

	files, err := filepath.Glob(filepath.Join(spill, "ldcpsi-*", "psi-*.bin"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spill files under %s (err=%v)", spill, err)
	}
	if enMem != enDisk {
		t.Errorf("energy: memory %.17g vs spill %.17g — must be bitwise equal", enMem, enDisk)
	}
	for i := range rhoMem {
		if rhoMem[i] != rhoDisk[i] {
			t.Fatalf("rho[%d]: memory %v vs spill %v — must be bitwise equal", i, rhoMem[i], rhoDisk[i])
		}
	}
	if err := ed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ed.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	left, _ := filepath.Glob(filepath.Join(spill, "ldcpsi-*"))
	if len(left) != 0 {
		t.Fatalf("Close left spill directories behind: %v", left)
	}
}

// sparseCluster embeds the 8-atom SiC cell in one octant of a doubled
// cell: the cluster's octant (plus buffers) is occupied, the far octants
// are genuine vacuum — no atom within any of their extended regions.
func sparseCluster() *atoms.System {
	base := atoms.BuildSiC(1)
	sys := &atoms.System{Cell: geom.Cell{L: base.Cell.L * 2}}
	off := base.Cell.L / 4
	for _, a := range base.Atoms {
		a.Position = a.Position.Add(geom.Vec3{X: off, Y: off, Z: off})
		sys.Atoms = append(sys.Atoms, a)
	}
	return sys
}

// TestVacuumDomainFastPath: empty domains must not get Kohn–Sham states
// or workspace visits, must contribute exactly zero density, and must be
// excluded from the degrees-of-freedom count — while the occupied
// domains still solve and produce finite observables.
func TestVacuumDomainFastPath(t *testing.T) {
	sys := sparseCluster()
	cfg := goldenConfig(32, 4, 2)
	cfg.Workers = 4
	e, err := NewEngine(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.NumDomains() != 64 {
		t.Fatalf("domains = %d, want 64", e.NumDomains())
	}
	if e.OccupiedDomains() >= e.NumDomains() {
		t.Fatalf("sparse geometry produced no vacuum domains (%d occupied of %d)",
			e.OccupiedDomains(), e.NumDomains())
	}
	if got, want := e.ResidentWorkspaces(), min(4, e.OccupiedDomains()); got != want {
		t.Fatalf("%d resident workspaces, want %d", got, want)
	}
	var wantDoF int64
	for _, st := range e.states {
		if st.nb > 0 {
			wantDoF += int64(st.da.Domain.LocalGrid().Size()) * int64(st.nb+1)
		} else if st.rhoPrev != nil || st.eig != nil {
			t.Fatalf("vacuum domain %d carries solver state", st.di)
		}
	}
	wantDoF += int64(e.Global.Size())
	if got := e.DegreesOfFreedom(); got != wantDoF {
		t.Fatalf("DoF = %d, want %d (occupied domains only)", got, wantDoF)
	}

	rhoOut, res, err := e.SCFStep()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Mu) || math.IsInf(res.Mu, 0) {
		t.Fatalf("mu = %v", res.Mu)
	}
	// Vacuum cores receive exactly zero density.
	for _, st := range e.states {
		if st.nb != 0 {
			continue
		}
		d := st.da.Domain
		for ix := 0; ix < d.CoreN; ix++ {
			for iy := 0; iy < d.CoreN; iy++ {
				for iz := 0; iz < d.CoreN; iz++ {
					if v := rhoOut.Data[e.Global.Index(d.Ox+ix, d.Oy+iy, d.Oz+iz)]; v != 0 {
						t.Fatalf("vacuum core of domain %d holds density %g", st.di, v)
					}
				}
			}
		}
	}
	// The two electrons-worth of charge still ends up in occupied cores.
	if got, want := rhoOut.Integral(), sys.TotalValence(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("∫ρ = %g, want %g", got, want)
	}
	forces, err := e.Forces()
	if err != nil {
		t.Fatal(err)
	}
	if len(forces) != sys.NumAtoms() {
		t.Fatalf("forces for %d atoms, want %d", len(forces), sys.NumAtoms())
	}
}

// TestStreamingConcurrentAssembly drives the incremental assembly, the
// disjoint force accumulation, and the shared store with many more
// domains than workers — the test the race detector runs against (see
// the scale-smoke CI gate).
func TestStreamingConcurrentAssembly(t *testing.T) {
	sys := atoms.BuildSiC(1)
	cfg := goldenConfig(16, 4, 2) // 64 domains
	cfg.Ecut = 6.0                // keep Np ≥ nb on the tiny 8³ local cells
	cfg.Workers = 8
	e, err := NewEngine(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.OccupiedDomains() <= e.ResidentWorkspaces() {
		t.Fatalf("want more occupied domains (%d) than workspaces (%d)",
			e.OccupiedDomains(), e.ResidentWorkspaces())
	}
	for iter := 0; iter < 2; iter++ {
		rhoOut, _, err := e.SCFStep()
		if err != nil {
			t.Fatal(err)
		}
		e.mixer.Mix([][]float64{e.Rho.Data}, [][]float64{rhoOut.Data})
	}
	if _, err := e.Forces(); err != nil {
		t.Fatal(err)
	}
}

// TestScaleSmoke512 is the CI scale gate: a 512-domain step must run in
// a bounded number of solver workspaces, with heavy memory set by the
// worker count rather than the domain count. When LDC_SCALE_RSS_MAX_MB
// is set (the make scale-smoke target sets it, together with GOMEMLIMIT),
// the process peak RSS is asserted against that ceiling.
func TestScaleSmoke512(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sys := atoms.BuildSiC(2)
	cfg := goldenConfig(32, 8, 2) // 512 domains, 8³ local cells
	cfg.Ecut = 6.0
	cfg.EigenIters = 2
	cfg.Workers = 4
	e, err := NewEngine(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.NumDomains() != 512 {
		t.Fatalf("domains = %d, want 512", e.NumDomains())
	}
	if got, want := e.ResidentWorkspaces(), min(cfg.Workers, e.OccupiedDomains()); got != want {
		t.Fatalf("%d resident workspaces, want %d", got, want)
	}
	rhoOut, res, err := e.SCFStep()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Energy) || math.IsNaN(res.Mu) {
		t.Fatalf("non-finite step: E=%v mu=%v", res.Energy, res.Mu)
	}
	if got, want := rhoOut.Integral(), sys.TotalValence(); math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("∫ρ = %g, want %g", got, want)
	}
	if ceiling := os.Getenv("LDC_SCALE_RSS_MAX_MB"); ceiling != "" {
		maxMB, err := strconv.Atoi(ceiling)
		if err != nil {
			t.Fatalf("LDC_SCALE_RSS_MAX_MB=%q: %v", ceiling, err)
		}
		if rss := peakRSSMB(t); rss > maxMB {
			t.Fatalf("peak RSS %d MiB exceeds the %d MiB scale-smoke ceiling", rss, maxMB)
		} else {
			t.Logf("peak RSS %d MiB (ceiling %d MiB) across %d domains in %d workspaces",
				rss, maxMB, e.NumDomains(), e.ResidentWorkspaces())
		}
	}
}

// peakRSSMB reads the process high-water RSS (VmHWM) in MiB.
func peakRSSMB(t *testing.T) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.Atoi(fields[1])
		if err != nil {
			break
		}
		return kb / 1024
	}
	t.Skip("VmHWM not found")
	return 0
}

// TestWorkspaceCountCapsAtWorkers pins the pool-sizing rule on both
// sides: fewer occupied domains than workers → one workspace per
// domain; more → exactly Workers workspaces.
func TestWorkspaceCountCapsAtWorkers(t *testing.T) {
	sys := atoms.BuildSiC(1)
	for _, tc := range []struct{ workers, nd, want int }{
		{2, 2, 2},  // 8 occupied domains, 2 workers → 2 workspaces
		{64, 2, 8}, // 8 occupied domains, 64 workers → 8 workspaces
	} {
		cfg := goldenConfig(16, tc.nd, 2)
		cfg.Workers = tc.workers
		e, err := NewEngine(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.ResidentWorkspaces(); got != tc.want {
			t.Fatalf("Workers=%d nd=%d: %d workspaces, want %d", tc.workers, tc.nd, got, tc.want)
		}
		e.Close()
	}
}
