package reactive

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/qio"
)

// TestProductionCancelWritesFinalCheckpoint: a cancelled production run
// stops after the current step, writes a final checkpoint of that step,
// and the checkpoint resumes the trajectory to completion.
func TestProductionCancelWritesFinalCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys, err := atoms.BuildLiAlInWater(atoms.LiAlParticleSpec{PairCount: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.h2o")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancelled from OnStep at step 1: a context already cancelled on entry
	// runs no step (md.Trajectory, as the LDC path always did).
	cfg := ProductionConfig{
		TempK: 600, Steps: 20, SampleEvery: 5, Seed: 5,
		CheckpointPath: path, Ctx: ctx,
		OnStep: func(step int, _, _ float64) {
			if step == 1 {
				cancel()
			}
		},
	}
	res, err := RunProduction(sys, cfg)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}

	ck, err := qio.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != 1 {
		t.Fatalf("final checkpoint at step %d, want 1", ck.Step)
	}
	restored, err := ck.RestoreSystem()
	if err != nil {
		t.Fatal(err)
	}
	cont := ProductionConfig{TempK: 600, Steps: 20, SampleEvery: 5, Seed: 5, Resume: ck}
	out, err := RunProduction(restored, cont)
	if err != nil {
		t.Fatal(err)
	}
	if out.Steps != 20 {
		t.Fatalf("resumed run reports %d steps, want 20", out.Steps)
	}
}
