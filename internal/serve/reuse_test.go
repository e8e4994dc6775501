package serve

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ldcdft/internal/qio"
)

// ckRunner runs no engine but leaves what QMDRunner leaves: a valid
// checkpoint at ckPath, at the spec's last step. It records, per job
// name, the checkpoint bytes it found at ckPath when it started (nil:
// none, a cold start).
type ckRunner struct {
	mu    sync.Mutex
	found map[string][]byte
}

func (r *ckRunner) Run(ctx context.Context, spec JobSpec, ckPath string,
	onStep func(int, float64, float64)) (RunReport, error) {
	raw, _ := os.ReadFile(ckPath)
	r.mu.Lock()
	r.found[spec.Name] = raw
	r.mu.Unlock()
	sys, err := spec.BuildSystem()
	if err != nil {
		return RunReport{}, err
	}
	ck, err := qio.CheckpointFromSystem(sys)
	if err != nil {
		return RunReport{}, err
	}
	ck.Step, ck.Energies = spec.Steps, make([]float64, spec.Steps)
	if _, err := qio.WriteCheckpoint(ckPath, ck, qio.CheckpointWriteOptions{}); err != nil {
		return RunReport{}, err
	}
	return RunReport{Steps: spec.Steps}, nil
}

func (r *ckRunner) foundBy(name string) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.found[name]
}

func newCkRunner() *ckRunner { return &ckRunner{found: make(map[string][]byte)} }

// runToEnd submits spec and waits for its completion.
func runToEnd(t *testing.T, m *Manager, spec JobSpec) *JobState {
	t.Helper()
	return waitStatus(t, m, mustSubmit(t, m, spec).ID, StatusCompleted)
}

// An identical LDC spec under another name and priority is admitted at
// the source's last step with a copy of its final checkpoint, and its
// runner starts from that copy.
func TestResubmissionGetsSourceCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r := newCkRunner()
	m := newTestManager(t, dir, 1, 4, r)
	defer shutdown(t, m)
	src := runToEnd(t, m, validSpec("source", 3))

	again := validSpec("again", 3)
	again.Priority = 5
	st := mustSubmit(t, m, again)
	if st.StepsDone != 3 {
		t.Fatalf("resubmission admitted at step %d, want 3", st.StepsDone)
	}
	if c := m.Stats(); c.Reused != 1 {
		t.Fatalf("Reused = %d, want 1", c.Reused)
	}
	waitStatus(t, m, st.ID, StatusCompleted)
	want, err := os.ReadFile(filepath.Join(dir, "jobs", src.ID, qio.JobCheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.foundBy("again"); !bytes.Equal(got, want) {
		t.Fatalf("runner found %d checkpoint bytes, want the source's %d", len(got), len(want))
	}
}

// Every spec that is not the source's up to name, priority, steps and
// checkpoint cadence, or asks for fewer steps, and every source whose
// checkpoint is gone, unreadable or pruned, starts cold.
func TestResubmissionStartsCold(t *testing.T) {
	reactive := validSpec("source", 3)
	reactive.Engine, reactive.Reactive = EngineReactive, &ReactiveSpec{TempK: 600}
	cases := []struct {
		name   string
		source JobSpec
		again  func(JobSpec) JobSpec
		spoil  func(t *testing.T, m *Manager, ckPath string) // after the source completes
	}{
		{name: "config.seed", again: func(s JobSpec) JobSpec { s.Config.Seed = 7; return s }},
		{name: "atom position", again: func(s JobSpec) JobSpec {
			s.Atoms = []AtomSpec{{Species: "H", Position: [3]float64{4, 4, 4.5}}}
			return s
		}},
		{name: "fewer steps", again: func(s JobSpec) JobSpec { s.Steps = 2; return s }},
		{name: "reactive", source: reactive},
		{name: "missing checkpoint", spoil: func(t *testing.T, _ *Manager, ckPath string) {
			if err := os.Remove(ckPath); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "unreadable checkpoint", spoil: func(t *testing.T, _ *Manager, ckPath string) {
			if err := os.WriteFile(ckPath, []byte("not a checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "pruned source", spoil: func(t *testing.T, m *Manager, _ string) {
			// The store keeps one terminal job: this one, a spec of
			// another key, prunes the source.
			other := validSpec("other", 1)
			other.Config.Seed = 9
			runToEnd(t, m, other)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.source.Steps == 0 {
				tc.source = validSpec("source", 3)
			}
			if tc.again == nil {
				tc.again = func(s JobSpec) JobSpec { return s }
			}
			dir := t.TempDir()
			r := newCkRunner()
			m, err := NewManager(Config{DataDir: dir, Workers: 1, QueueCap: 4, Runner: r,
				Logf: t.Logf, RetainMaxJobs: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, m)
			src := runToEnd(t, m, tc.source)
			if tc.spoil != nil {
				tc.spoil(t, m, filepath.Join(dir, "jobs", src.ID, qio.JobCheckpointFile))
			}
			again := tc.again(tc.source)
			again.Name = "again"
			st := mustSubmit(t, m, again)
			if st.StepsDone != 0 || m.Stats().Reused != 0 {
				t.Fatalf("admitted at step %d with %d reused, want a cold start", st.StepsDone, m.Stats().Reused)
			}
			waitStatus(t, m, st.ID, StatusCompleted)
			if got := r.foundBy("again"); got != nil {
				t.Fatalf("runner found a %d-byte checkpoint, want none", len(got))
			}
		})
	}
}

// The reuse index is rebuilt from the store: a restarted manager still
// starts a resubmission from the completed job's checkpoint.
func TestRestartedManagerStillReuses(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, 1, 4, newCkRunner())
	runToEnd(t, m, validSpec("source", 3))
	shutdown(t, m)

	m = newTestManager(t, dir, 1, 4, newCkRunner())
	defer shutdown(t, m)
	st := mustSubmit(t, m, validSpec("again", 5))
	if st.StepsDone != 3 || m.Stats().Reused != 1 {
		t.Fatalf("after restart: admitted at step %d with %d reused, want 3 and 1", st.StepsDone, m.Stats().Reused)
	}
}

// A longer resubmission of a real trajectory resumes at the source's last
// step with the density and the ρα histories, and ends bitwise equal to a
// cold run of itself.
func TestLongerResubmissionResumesBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("real SCF trajectories in -short mode")
	}
	m := newTestManager(t, t.TempDir(), 1, 4, nil)
	defer shutdown(t, m)
	runToEnd(t, m, tinyH2Spec("source", 2))
	st := mustSubmit(t, m, tinyH2Spec("longer", 4))
	if st.StepsDone != 2 {
		t.Fatalf("longer resubmission admitted at step %d, want 2", st.StepsDone)
	}
	waitStatus(t, m, st.ID, StatusCompleted)
	_, got := storedResults(t, m, st.ID)

	cold := newTestManager(t, t.TempDir(), 1, 4, nil)
	defer shutdown(t, cold)
	_, want := storedResults(t, cold, runToEnd(t, cold, tinyH2Spec("cold", 4)).ID)
	sameBits := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d values, cold run %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %v, cold run %v", what, i, a[i], b[i])
			}
		}
	}
	sameBits("energies", got.EnergiesHa, want.EnergiesHa)
	sameBits("temperatures", got.TemperaturesK, want.TemperaturesK)
	if len(got.EnergiesHa) != 4 {
		t.Fatalf("%d energies, want 4", len(got.EnergiesHa))
	}
	for i, a := range got.FinalSystem.Atoms {
		b := want.FinalSystem.Atoms[i]
		sameBits("final position", a.Position[:], b.Position[:])
		sameBits("final velocity", a.Velocity[:], b.Velocity[:])
	}
}
