package qmd

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ldcdft/internal/geom"
	"ldcdft/internal/md"
	"ldcdft/internal/perf"
	"ldcdft/internal/qio"
)

func ckTestConfig() LDCConfig {
	return LDCConfig{
		GridN: 16, DomainsPerAxis: 2, BufN: 3, Ecut: 4.0,
		KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxSCF: 80,
		EigenIters: 4, Seed: 1, EnergyTol: 1e-5, DensityTol: 1e-4,
	}
}

// atProcessorCounts runs body at GOMAXPROCS 1, 2 and 4 (restored after
// each): the resume guarantees below are claims about bit patterns, and
// a requeued job may resume on a node with a different core count, so
// they must hold whatever the processor count is.
func atProcessorCounts(t *testing.T, body func(t *testing.T)) {
	for _, procs := range []int{1, 2, 4} {
		t.Run("procs="+strconv.Itoa(procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			body(t)
		})
	}
}

// TestResumeMatchesUninterrupted is the checkpoint/restart acceptance
// test: a 1-step run + checkpoint + resume must reproduce the
// uninterrupted 2-step trajectory — bitwise-identical final energy,
// positions and velocities, because the resumed integrator is re-primed
// with the checkpointed forces and the SCF warm-starts from the
// checkpointed density.
func TestResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("QMD is expensive")
	}
	atProcessorCounts(t, func(t *testing.T) {
		sys := BuildSiC(1)
		sys.InitVelocities(300, rand.New(rand.NewSource(2)))
		cfg := ckTestConfig()

		full, err := RunQMD(sys, cfg, 2, 0)
		if err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "ck.qmd")
		opts := QMDOptions{CheckpointEvery: 1, CheckpointPath: path}
		bytes0 := perf.GetPhase("qio/checkpoint-write").Bytes()
		part, err := RunQMDOpts(sys, cfg, 1, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if part.Steps != 1 {
			t.Fatalf("partial run did %d steps", part.Steps)
		}
		if perf.GetPhase("qio/checkpoint-write").Bytes() <= bytes0 {
			t.Fatal("checkpoint write recorded no bytes in the qio/checkpoint-write phase")
		}

		res, err := ResumeQMD(path, cfg, 2, 0, QMDOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != 2 || len(res.Energies) != 2 {
			t.Fatalf("resumed trajectory: %d steps, %d energies", res.Steps, len(res.Energies))
		}
		if math.Float64bits(res.Energies[1]) != math.Float64bits(full.Energies[1]) {
			t.Fatalf("final energy differs: resumed %.17g vs uninterrupted %.17g",
				res.Energies[1], full.Energies[1])
		}
		if res.SCFIterations != full.SCFIterations {
			t.Errorf("SCF iteration counts differ: resumed %d vs uninterrupted %d",
				res.SCFIterations, full.SCFIterations)
		}
		for i := range full.FinalSystem.Atoms {
			a, b := full.FinalSystem.Atoms[i], res.FinalSystem.Atoms[i]
			if a.Position != b.Position || a.Velocity != b.Velocity {
				t.Fatalf("atom %d state not bitwise equal after resume", i)
			}
		}
		// The first energy is carried over from the checkpointed record.
		if res.Energies[0] != part.Energies[0] {
			t.Fatal("resumed trajectory lost the checkpointed step record")
		}
	})
}

// The SCF-iteration record counts every solve a trajectory ran — on a
// fresh run the integrator's priming evaluation too, on a resume none
// before the first step, since the checkpoint restores the forces — so
// it moves with the scf/domain-solves phase calls, one per iteration.
func TestSCFIterationsCountEverySolve(t *testing.T) {
	if testing.Short() {
		t.Skip("full SCF solves")
	}
	solves := perf.GetPhase("scf/domain-solves")
	path := filepath.Join(t.TempDir(), "ck.qmd")
	calls := solves.Calls()
	cold, err := RunQMDOpts(h2System(), h2Config(), 2, 0, QMDOptions{CheckpointEvery: 1, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if got := solves.Calls() - calls; int64(cold.SCFIterations) != got {
		t.Fatalf("cold run records %d SCF iterations, domain-solves counted %d", cold.SCFIterations, got)
	}
	ck, err := qio.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.SCFIterations != cold.SCFIterations {
		t.Fatalf("checkpoint records %d SCF iterations, the run %d", ck.SCFIterations, cold.SCFIterations)
	}
	calls = solves.Calls()
	res, err := ResumeQMD(path, h2Config(), 3, 0, QMDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := solves.Calls() - calls; int64(res.SCFIterations-cold.SCFIterations) != got {
		t.Fatalf("resume adds %d SCF iterations to the record, domain-solves counted %d",
			res.SCFIterations-cold.SCFIterations, got)
	}
}

// TestResumeGridMismatchAndPastEnd: a checkpoint whose density grid or
// ρα history shape differs from the configuration is refused, naming
// both; resuming a checkpoint already at the requested step count
// returns the recorded trajectory without any SCF.
func TestResumeGridMismatchAndPastEnd(t *testing.T) {
	sys := BuildSiC(1)
	ck, err := qio.CheckpointFromSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	ck.Step = 2
	ck.DtFs = 0.242
	ck.GridN = 8
	ck.Rho = make([]float64, 8*8*8)
	ck.Energies = []float64{-1, -2}
	ck.Temperatures = []float64{300, 301}
	ck.SCFIterations = 9
	path := filepath.Join(t.TempDir(), "ck.qmd")
	if _, err := qio.WriteCheckpoint(path, ck, qio.CheckpointWriteOptions{}); err != nil {
		t.Fatal(err)
	}

	cfg := ckTestConfig() // GridN 16 != checkpoint's 8
	if _, err := ResumeQMD(path, cfg, 4, 0, QMDOptions{}); err == nil ||
		!strings.Contains(err.Error(), "does not match") {
		t.Fatalf("grid mismatch: %v", err)
	}

	// Histories of another decomposition: 8 domains of 10³ points is what
	// GridN 8, DomainsPerAxis 2, BufN 3 carries, 2 × 3 is not.
	cfg.GridN = 8
	ck.HistN, ck.Hist = 3, make([][]float64, 2)
	ck.Hist[1] = make([]float64, 27)
	if _, err := qio.WriteCheckpoint(path, ck, qio.CheckpointWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeQMD(path, cfg, 4, 0, QMDOptions{}); err == nil ||
		!strings.Contains(err.Error(), "2 domains × 3³") || !strings.Contains(err.Error(), "8 domains × 10³") {
		t.Fatalf("history shape mismatch: %v", err)
	}
	ck.HistN, ck.Hist = 10, make([][]float64, 8)
	ck.Hist[5] = make([]float64, 1000)
	if _, err := qio.WriteCheckpoint(path, ck, qio.CheckpointWriteOptions{}); err != nil {
		t.Fatal(err)
	}

	res, err := ResumeQMD(path, cfg, 2, 0, QMDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 || res.SCFIterations != 9 || len(res.Energies) != 2 {
		t.Fatalf("past-end resume altered the record: %+v", res)
	}
	if res.FinalSystem == nil || res.FinalSystem.NumAtoms() != sys.NumAtoms() {
		t.Fatal("past-end resume lost the system")
	}
}

// TestRunQMDPartialResultOnError: a trajectory that fails mid-run must
// still hand back the last good state (FinalSystem non-nil), the state a
// checkpoint would want.
func TestRunQMDPartialResultOnError(t *testing.T) {
	sys := BuildSiC(1)
	cfg := ckTestConfig()
	cfg.GridN = 25 // not divisible by 2 domains: engine rebuild fails in step 1
	res, err := RunQMD(sys, cfg, 2, 0)
	if err == nil {
		t.Fatal("expected mid-trajectory error")
	}
	if res == nil || res.FinalSystem == nil {
		t.Fatal("partial result lost FinalSystem on the error path")
	}
	if res.FinalSystem.NumAtoms() != sys.NumAtoms() {
		t.Fatal("partial FinalSystem corrupted")
	}
}

// harmonicFF is a cheap deterministic force field for exercising the
// checkpoint machinery without SCF solves.
type harmonicFF struct{ k float64 }

func (h harmonicFF) Compute(sys *System) (float64, []Vec3, error) {
	c := geom.Vec3{X: sys.Cell.L / 2, Y: sys.Cell.L / 2, Z: sys.Cell.L / 2}
	f := make([]Vec3, len(sys.Atoms))
	var e float64
	for i, a := range sys.Atoms {
		d := sys.Cell.MinImage(c, a.Position)
		e += 0.5 * h.k * d.Norm2()
		f[i] = d.Scale(-h.k)
	}
	return e, f, nil
}

// TestConcurrentCheckpointsDuringTrajectory drives an MD trajectory with
// a cheap force field while several goroutines write checkpoints of the
// evolving state — the `make race` coverage for concurrent checkpoint
// writes during a trajectory.
func TestConcurrentCheckpointsDuringTrajectory(t *testing.T) {
	sys := BuildSiC(1)
	sys.InitVelocities(300, rand.New(rand.NewSource(4)))
	in := md.NewIntegrator(harmonicFF{k: 0.02}, 0)
	dir := t.TempDir()
	for step := 0; step < 4; step++ {
		if err := in.Step(sys); err != nil {
			t.Fatal(err)
		}
		snap := sys.Clone()
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ck, err := qio.CheckpointFromSystem(snap)
				if err != nil {
					errs <- err
					return
				}
				ck.Step = step + 1
				ck.Energy = in.PotentialEnergy()
				ck.Force = append([]geom.Vec3(nil), in.Forces()...)
				path := filepath.Join(dir, "w"+string(rune('0'+w))+".qmd")
				if _, err := qio.WriteCheckpoint(path, ck, qio.CheckpointWriteOptions{DomainsPerAxis: 2}); err != nil {
					errs <- err
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	// The final checkpoint must restore the final state bitwise.
	ck, err := qio.ReadCheckpoint(filepath.Join(dir, "w0.qmd"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ck.RestoreSystem()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sys.Atoms {
		if got.Atoms[i].Position != sys.Atoms[i].Position || got.Atoms[i].Velocity != sys.Atoms[i].Velocity {
			t.Fatalf("atom %d not restored bitwise", i)
		}
	}
}
