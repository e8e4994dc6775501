package md

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/qio"
)

// tearField is a harmonic field that takes the driver's context and, like
// an SCF solve, gives up part-way once it is cancelled: the evaluation
// numbered failAt (1-based, 0 = never) cancels the context itself and
// returns its error, leaving the step that called it half advanced.
type tearField struct {
	harmonicPair
	ctx    context.Context
	cancel context.CancelFunc
	calls  int
	failAt int
}

func (f *tearField) SetContext(ctx context.Context) { f.ctx = ctx }

func (f *tearField) Compute(sys *atoms.System) (float64, []geom.Vec3, error) {
	f.calls++
	if f.calls == f.failAt {
		f.cancel()
		return 0, nil, f.ctx.Err()
	}
	return f.harmonicPair.Compute(sys)
}

// failingField fails the evaluation numbered failAt with a plain error,
// after calling onFail (if set).
type failingField struct {
	harmonicPair
	calls, failAt int
	onFail        func()
}

func (f *failingField) Compute(sys *atoms.System) (float64, []geom.Vec3, error) {
	if f.calls++; f.calls == f.failAt {
		if f.onFail != nil {
			f.onFail()
		}
		return 0, nil, errors.New("boom")
	}
	return f.harmonicPair.Compute(sys)
}

var spring = harmonicPair{K: 0.1, R0: 2}

// memSink collects the checkpoints a trajectory writes.
type memSink struct{ cks []*qio.Checkpoint }

func (m *memSink) write(ck *qio.Checkpoint) error {
	m.cks = append(m.cks, ck)
	return nil
}

func (m *memSink) steps() []int {
	var s []int
	for _, ck := range m.cks {
		s = append(s, ck.Step)
	}
	return s
}

func sameState(a, b *atoms.System) bool {
	for i := range a.Atoms {
		if a.Atoms[i].Position != b.Atoms[i].Position || a.Atoms[i].Velocity != b.Atoms[i].Velocity {
			return false
		}
	}
	return true
}

// TestRunObserver: the driver runs the requested steps and shows each one
// to both hooks, Observe first.
func TestRunObserver(t *testing.T) {
	in := NewIntegrator(&spring, 0.5)
	sys := dimerSystem(2.2)
	var seen []int
	traj := Trajectory{In: in, Steps: 5,
		Observe: func(step int) { seen = append(seen, step) },
		OnStep: func(step int, e, tK float64) {
			if len(seen) != step || e != in.PotentialEnergy() || tK != sys.Temperature() {
				t.Errorf("OnStep(%d, %g, %g) after %v", step, e, tK, seen)
			}
		},
	}
	rec, err := traj.Run(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 || seen[4] != 5 {
		t.Fatalf("observer calls %v", seen)
	}
	if rec.Steps != 5 || len(rec.Energies) != 5 || len(rec.Temperatures) != 5 || rec.System != sys {
		t.Fatalf("record %+v", rec)
	}
}

// TestCheckpointCadenceAndResume: checkpoints land on the cadence with the
// common fields filled, and a trajectory resumed from one reproduces the
// uninterrupted one bit for bit without re-evaluating the initial forces.
func TestCheckpointCadenceAndResume(t *testing.T) {
	full, err := (&Trajectory{In: NewIntegrator(&spring, 0.5), Steps: 7}).Run(dimerSystem(2.2))
	if err != nil {
		t.Fatal(err)
	}

	var sink memSink
	path := filepath.Join(t.TempDir(), "ck")
	rec, err := (&Trajectory{In: NewIntegrator(&spring, 0.5), Steps: 5,
		CheckpointEvery: 2, CheckpointPath: path, Write: sink.write}).Run(dimerSystem(2.2))
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.steps(); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("checkpoints at steps %v, want [2 4]", got)
	}
	ck := sink.cks[1]
	if ck.DtFs != 0.5 || ck.Energy != rec.Energies[3] || len(ck.Force) != 2 ||
		len(ck.Energies) != 4 || len(ck.Temperatures) != 4 || len(ck.Pos) != 2 {
		t.Fatalf("checkpoint fields: %+v", ck)
	}

	restored, err := ck.RestoreSystem()
	if err != nil {
		t.Fatal(err)
	}
	ff := &failingField{harmonicPair: spring}
	resumed, err := (&Trajectory{In: NewIntegrator(ff, ck.DtFs), Steps: 7, Resume: ck}).Run(restored)
	if err != nil {
		t.Fatal(err)
	}
	if ff.calls != 3 {
		t.Fatalf("%d force evaluations for 3 resumed steps: the integrator was not primed", ff.calls)
	}
	if resumed.Steps != 7 || len(resumed.Energies) != 7 {
		t.Fatalf("resumed record: %+v", resumed)
	}
	for i := range full.Energies {
		if resumed.Energies[i] != full.Energies[i] || resumed.Temperatures[i] != full.Temperatures[i] {
			t.Fatalf("step %d differs after resume", i+1)
		}
	}
	if !sameState(resumed.System, full.System) {
		t.Fatal("final state differs after resume")
	}
}

// TestResumePrefixTruncation: a checkpoint whose record runs past its step
// count contributes only Step entries, and continuing does not write into
// the checkpoint's own slices.
func TestResumePrefixTruncation(t *testing.T) {
	ck := &qio.Checkpoint{Step: 2, Energies: []float64{-1, -2, -3}, Temperatures: []float64{10, 20, 30}}
	rec, err := (&Trajectory{In: NewIntegrator(&spring, 0.5), Steps: 3, Resume: ck}).Run(dimerSystem(2.2))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Steps != 3 || len(rec.Energies) != 3 || rec.Energies[1] != -2 || rec.Energies[2] == -3 {
		t.Fatalf("record %+v", rec)
	}
	if ck.Energies[2] != -3 || ck.Temperatures[2] != 30 {
		t.Fatalf("resume wrote into the checkpoint: %v %v", ck.Energies, ck.Temperatures)
	}
}

// TestCheckpointPastLength: a checkpoint at or past the requested length
// runs nothing and returns the recorded trajectory.
func TestCheckpointPastLength(t *testing.T) {
	ck := &qio.Checkpoint{Step: 3, Energies: []float64{-1, -2, -3}, Temperatures: []float64{10, 20, 30}}
	ff := &failingField{harmonicPair: spring}
	rec, err := (&Trajectory{In: NewIntegrator(ff, 0.5), Steps: 2, Resume: ck}).Run(dimerSystem(2.2))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Steps != 3 || len(rec.Energies) != 3 || ff.calls != 0 {
		t.Fatalf("record %+v after %d force evaluations", rec, ff.calls)
	}
}

// TestCancelOnEntry: an already cancelled context runs no step and writes
// no checkpoint.
func TestCancelOnEntry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sink memSink
	ff := &failingField{harmonicPair: spring}
	rec, err := (&Trajectory{In: NewIntegrator(ff, 0.5), Steps: 4, Ctx: ctx,
		CheckpointPath: filepath.Join(t.TempDir(), "ck"), Write: sink.write}).Run(dimerSystem(2.2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rec.Steps != 0 || ff.calls != 0 || len(sink.cks) != 0 {
		t.Fatalf("%d steps, %d force evaluations, %d checkpoints", rec.Steps, ff.calls, len(sink.cks))
	}
}

// TestCancelBetweenSteps: a cancellation seen between steps checkpoints
// the step just completed — from the live system, no copy, when the force
// field cannot tear a step — and one first seen after the last step does
// not fail the finished trajectory.
func TestCancelBetweenSteps(t *testing.T) {
	for _, at := range []int{2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var sink memSink
		sys := dimerSystem(2.2)
		rec, err := (&Trajectory{In: NewIntegrator(&spring, 0.5), Steps: 4, Ctx: ctx,
			CheckpointPath: filepath.Join(t.TempDir(), "ck"), Write: sink.write,
			OnStep: func(step int, _, _ float64) {
				if step == at {
					cancel()
				}
			}}).Run(sys)
		if at == 4 {
			if err != nil || rec.Steps != 4 || len(sink.cks) != 0 {
				t.Fatalf("cancel after the last step: %d steps, %d checkpoints, %v", rec.Steps, len(sink.cks), err)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if rec.Steps != 2 || len(rec.Energies) != 2 || rec.System != sys {
			t.Fatalf("record %+v", rec)
		}
		if got := sink.steps(); len(got) != 1 || got[0] != 2 || sink.cks[0].Pos[0] != sys.Atoms[0].Position {
			t.Fatalf("final checkpoint at steps %v", got)
		}
	}
}

// TestCancelMidStep: a cancellation that tears step 3 inside the force
// evaluation checkpoints step 2 — the state before the torn step, not the
// half-advanced system.
func TestCancelMidStep(t *testing.T) {
	want, err := (&Trajectory{In: NewIntegrator(&spring, 0.5), Steps: 2}).Run(dimerSystem(2.2))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Evaluations: the initial forces, then one per step — the 4th is step 3's.
	ff := &tearField{harmonicPair: spring, cancel: cancel, failAt: 4}
	var sink memSink
	sys := dimerSystem(2.2)
	rec, err := (&Trajectory{In: NewIntegrator(ff, 0.5), Steps: 5, Ctx: ctx,
		CheckpointPath: filepath.Join(t.TempDir(), "ck"), Write: sink.write}).Run(sys)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rec.Steps != 2 || len(rec.Energies) != 2 {
		t.Fatalf("record %+v", rec)
	}
	if sameState(sys, want.System) {
		t.Fatal("the live system was not torn: the test exercises nothing")
	}
	if !sameState(rec.System, want.System) {
		t.Fatal("returned system is not the state after step 2")
	}
	if got := sink.steps(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("final checkpoint at steps %v, want [2]", got)
	}
	ck := sink.cks[0]
	restored, err := ck.RestoreSystem()
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(restored, want.System) || ck.Energy != want.Energies[1] {
		t.Fatal("final checkpoint does not hold step 2")
	}
}

// TestErrorMidRunReturnsPartialRecord: a force-field failure that is not a
// cancellation returns the steps completed before it and writes nothing,
// even if the context happens to be cancelled by then.
func TestErrorMidRunReturnsPartialRecord(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sink memSink
	sys := dimerSystem(2.2)
	// The context is cancelled while step 3's evaluation fails: the field
	// does not take it, so this is a failure and the torn step is not saved.
	ff := &failingField{harmonicPair: spring, failAt: 4, onFail: cancel}
	rec, err := (&Trajectory{In: NewIntegrator(ff, 0.5), Steps: 5, Ctx: ctx,
		CheckpointPath: filepath.Join(t.TempDir(), "ck"), Write: sink.write}).Run(sys)
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("want the force-field error, got %v", err)
	}
	if rec == nil || rec.Steps != 2 || len(rec.Energies) != 2 || rec.System != sys || len(sink.cks) != 0 {
		t.Fatalf("record %+v, %d checkpoints", rec, len(sink.cks))
	}
}

// TestRunRemovesOwnOrphanedTemps: what a killed run of the same trajectory
// left next to its checkpoint goes before the first write; anything else
// in the directory — which is the user's — stays.
func TestRunRemovesOwnOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "traj.ck")
	orphans := []string{path + ".0123abcd.tmp", path + ".delta.89abcdef.tmp"}
	others := []string{filepath.Join(dir, "other.tmp"), path + ".notes.tmp", path + "x.0123abcd.tmp"}
	for _, f := range append(orphans, others...) {
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	traj := Trajectory{In: NewIntegrator(&spring, 0.5), Steps: 1, CheckpointEvery: 1, CheckpointPath: path,
		Write: func(ck *qio.Checkpoint) error {
			_, err := qio.WriteCheckpoint(path, ck, qio.CheckpointWriteOptions{})
			return err
		}}
	if _, err := traj.Run(dimerSystem(2.2)); err != nil {
		t.Fatal(err)
	}
	for _, f := range orphans {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived", filepath.Base(f))
		}
	}
	for _, f := range append(others, path) {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("%s: %v", filepath.Base(f), err)
		}
	}
}
