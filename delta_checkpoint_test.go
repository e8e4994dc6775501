package qmd

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/perf"
	"ldcdft/internal/qio"
)

// deltaSnap builds the checkpoint the trajectory driver would hand the
// writer for out's step, by hand, so the test controls exactly how much
// state changes between checkpoint writes.
func deltaSnap(t *testing.T, sys *System, gridN int, energy float64, out *QMDResult) *qio.Checkpoint {
	t.Helper()
	g := grid.New(gridN, sys.Cell.L)
	rho := make([]float64, g.Size())
	for i := range rho {
		rho[i] = 0.02 + 0.0001*math.Sin(float64(i)*0.003)
	}
	forces := make([]geom.Vec3, sys.NumAtoms())
	for i := range forces {
		forces[i] = geom.Vec3{X: 0.01 * float64(i), Y: -0.02, Z: 0.003}
	}
	ck, err := qio.CheckpointFromSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	ck.Step, ck.DtFs, ck.Energy, ck.Force = out.Steps, 0.242, energy, forces
	ck.SCFIterations, ck.Energies, ck.Temperatures = out.SCFIterations, out.Energies, out.Temperatures
	ck.GridN, ck.Rho = gridN, rho
	return ck
}

// TestDeltaCheckpointWriterAndResume drives the delta checkpoint writer
// through its three regimes — first write (full base), sparse change
// (small delta file), dense change (fold into a fresh base) — and
// resumes through the public path after each, without any SCF (the
// resume targets the recorded step, so no MD runs).
func TestDeltaCheckpointWriterAndResume(t *testing.T) {
	const gridN = 8
	sys := BuildSiC(1)
	cfg := ckTestConfig()
	cfg.GridN = gridN
	path := filepath.Join(t.TempDir(), "ck.qmd")
	opts := QMDOptions{CheckpointPath: path, DeltaCheckpoints: true}
	cw := &checkpointWriter{opts: opts, domains: 2}

	// Step 1: first write is a full base, no delta.
	out := &QMDResult{Steps: 1, SCFIterations: 30,
		Energies: []float64{-7.5}, Temperatures: []float64{300}}
	if err := cw.write(deltaSnap(t, sys, gridN, -7.5, out)); err != nil {
		t.Fatal(err)
	}
	baseInfo, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".delta"); !os.IsNotExist(err) {
		t.Fatal("first checkpoint write left a delta file")
	}

	// Step 2: one atom moves, a few density points change — the write
	// must produce a small delta and leave the base untouched.
	sys.Atoms[0].Position.X += 0.05
	sys.Atoms[0].Velocity.Y += 0.001
	out.Steps, out.SCFIterations = 2, 55
	out.Energies = append(out.Energies, -7.51)
	out.Temperatures = append(out.Temperatures, 301)
	snap2 := deltaSnap(t, sys, gridN, -7.51, out)
	for i := 0; i < 5; i++ {
		snap2.Rho[i*31] += 1e-6
	}
	if err := cw.write(snap2); err != nil {
		t.Fatal(err)
	}
	deltaInfo, err := os.Stat(path + ".delta")
	if err != nil {
		t.Fatalf("sparse change wrote no delta: %v", err)
	}
	if deltaInfo.Size()*4 > baseInfo.Size() {
		t.Fatalf("delta %d B not small vs base %d B", deltaInfo.Size(), baseInfo.Size())
	}
	if nowBase, err := os.Stat(path); err != nil || nowBase.Size() != baseInfo.Size() {
		t.Fatalf("sparse delta write disturbed the base: %v", err)
	}

	// Resume sees base+delta: the newest step, with the moved atom.
	res, err := ResumeQMD(path, cfg, 2, 0, QMDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 || res.SCFIterations != 55 || len(res.Energies) != 2 {
		t.Fatalf("resume did not pick up the delta step: %+v", res)
	}
	if res.FinalSystem.Atoms[0].Position != sys.Atoms[0].Position {
		t.Fatal("resume lost the delta's atom update")
	}

	// Step 3: everything changes — the writer folds into a fresh base
	// and clears the delta, having written no delta on the way: the
	// bytes it wrote are the new base's.
	for i := range sys.Atoms {
		sys.Atoms[i].Position.Z += 0.1 * float64(i+1)
	}
	out.Steps = 3
	out.Energies = append(out.Energies, -7.52)
	out.Temperatures = append(out.Temperatures, 302)
	snap3 := deltaSnap(t, sys, gridN, -7.52, out)
	for i := range snap3.Rho {
		snap3.Rho[i] *= 1.001
	}
	written := perf.GetPhase("qio/checkpoint-write").Bytes()
	if err := cw.write(snap3); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".delta"); !os.IsNotExist(err) {
		t.Fatal("dense change did not fold the delta into a fresh base")
	}
	if info, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if n := perf.GetPhase("qio/checkpoint-write").Bytes() - written; n != info.Size() {
		t.Fatalf("folding into a %d-byte base wrote %d bytes: a delta was written first", info.Size(), n)
	}
	ck, err := qio.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != 3 {
		t.Fatalf("refreshed base records step %d, want 3", ck.Step)
	}

	// Crash window: a stale delta (bound to a superseded base) next to a
	// fresh base must be ignored by resume, not misapplied.
	again := *snap3 // the base the writer kept must not change under it
	again.Vel = append([]geom.Vec3(nil), snap3.Vel...)
	again.Vel[0].X += 1e-5
	if err := cw.write(&again); err != nil {
		t.Fatal(err) // near-identical step-3 state: a small delta vs the new base
	}
	if _, err := os.Stat(path + ".delta"); err != nil {
		t.Fatal("expected a delta for the repeat write")
	}
	fresh := *ck
	fresh.Step = 4
	if _, err := qio.WriteCheckpoint(path, &fresh, qio.CheckpointWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err = ResumeQMD(path, cfg, 4, 0, QMDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 4 {
		t.Fatalf("stale delta was applied over the newer base: step %d", res.Steps)
	}
}

// TestDeltaResumeMatchesUninterrupted is the delta-checkpoint acceptance
// test: a trajectory checkpointed incrementally, interrupted, and
// resumed (with the writer re-seeded from the on-disk base) reproduces
// the uninterrupted trajectory bit-for-bit — same guarantee as full
// checkpoints, at delta write cost.
func TestDeltaResumeMatchesUninterrupted(t *testing.T) {
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
		opts := QMDOptions{CheckpointEvery: 1, CheckpointPath: path, DeltaCheckpoints: true}
		if _, err := RunQMDOpts(sys, cfg, 1, 0, opts); err != nil {
			t.Fatal(err)
		}
		res, err := ResumeQMD(path, cfg, 2, 0, opts)
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
		for i := range full.FinalSystem.Atoms {
			a, b := full.FinalSystem.Atoms[i], res.FinalSystem.Atoms[i]
			if a.Position != b.Position || a.Velocity != b.Velocity {
				t.Fatalf("atom %d state not bitwise equal after delta resume", i)
			}
		}
		// The resumed trajectory itself checkpointed incrementally: the
		// state on disk (base, plus delta if one survived rotation)
		// restores the final step.
		base, err := qio.LoadCheckpointBase(path)
		if err != nil {
			t.Fatal(err)
		}
		last, err := qio.ApplyDeltaIfPresent(base, path+".delta")
		if err != nil {
			t.Fatal(err)
		}
		if last.Step != 2 {
			t.Fatalf("on-disk delta checkpoint state at step %d, want 2", last.Step)
		}
	})
}
