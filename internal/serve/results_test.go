package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	qmd "ldcdft"
	"ldcdft/internal/qio"
	"ldcdft/internal/reactive"
)

// resultsRunner completes instantly with a canned Results payload.
type resultsRunner struct{}

func (resultsRunner) Run(ctx context.Context, spec JobSpec, ckPath string,
	onStep func(step int, energyHa, tempK float64)) (RunReport, error) {
	for i := 1; i <= spec.Steps; i++ {
		onStep(i, -1, 300)
	}
	return RunReport{
		Steps: spec.Steps,
		Results: &Results{
			Engine:            EngineReactive,
			Steps:             spec.Steps,
			FinalEnergyHa:     -1.25,
			Census:            &reactive.Census{H2: 4, Water: 10},
			RatePerPairPerSec: 2e11,
			PairCount:         3,
		},
	}, nil
}

// Completed jobs persist results.json; Manager.Results and the HTTP
// endpoint serve it, and jobs without results answer ErrNoResults/404.
func TestResultsPersistAndServe(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, 1, 4, resultsRunner{})
	defer m.Shutdown(context.Background())

	st, err := m.Submit(validSpec("with-results", 3))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, st.ID, StatusCompleted)

	res, err := m.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineReactive || res.Census == nil || res.Census.H2 != 4 {
		t.Fatalf("results round-trip mangled: %+v", res)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", st.ID, qio.JobResultsFile)); err != nil {
		t.Fatalf("results.json not persisted: %v", err)
	}

	if _, err := m.Results("j99999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: got %v, want ErrNotFound", err)
	}

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET results: %d", resp.StatusCode)
	}
	var got Results
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.RatePerPairPerSec != 2e11 || got.Census.Water != 10 {
		t.Fatalf("HTTP results mangled: %+v", got)
	}
	if resp, err := srv.Client().Get(srv.URL + "/v1/jobs/j99999999/results"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("unknown id over HTTP: %d, want 404", resp.StatusCode)
		}
	}
}

// A runner that reports no Results (interrupted-style) leaves the job
// without results.json: ErrNoResults.
func TestResultsAbsent(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1, 4, &fakeRunner{})
	defer m.Shutdown(context.Background())
	st, err := m.Submit(validSpec("no-results", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, st.ID, StatusCompleted)
	if _, err := m.Results(st.ID); !errors.Is(err, ErrNoResults) {
		t.Fatalf("got %v, want ErrNoResults", err)
	}
}

// A real reactive-engine job runs through QMDRunner end to end: engine
// dispatch, census in results, checkpoint written.
func TestReactiveEngineJob(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, 1, 4, QMDRunner{})
	defer m.Shutdown(context.Background())

	spec := JobSpec{
		Name:   "reactive-smoke",
		Engine: EngineReactive,
		CellL:  20,
		Atoms: []AtomSpec{
			{Species: "Li", Position: [3]float64{9, 10, 10}},
			{Species: "Al", Position: [3]float64{11, 10, 10}},
			{Species: "O", Position: [3]float64{10, 14, 10}},
			{Species: "H", Position: [3]float64{11.2, 14.6, 10}},
			{Species: "H", Position: [3]float64{8.8, 14.6, 10}},
		},
		Reactive: &ReactiveSpec{TempK: 600, SampleEvery: 10, Seed: 1},
		Steps:    30,
	}
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitStatus(t, m, st.ID, StatusCompleted)
	if fin.StepsDone != 30 {
		t.Fatalf("steps done %d, want 30", fin.StepsDone)
	}
	res, err := m.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineReactive || res.Census == nil || res.FinalSystem == nil {
		t.Fatalf("reactive results incomplete: %+v", res)
	}
	if len(res.FinalSystem.Atoms) != 5 {
		t.Fatalf("final system has %d atoms, want 5", len(res.FinalSystem.Atoms))
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", st.ID, qio.JobCheckpointFile)); err != nil {
		t.Fatalf("reactive job left no checkpoint: %v", err)
	}
}

// A reactive trajectory that fails mid-run — here its second checkpoint
// cannot be written — reports the steps it completed, like an LDC one,
// not an empty record.
func TestReactiveRunReportCarriesPartialStepsOnError(t *testing.T) {
	spec := JobSpec{
		Engine: EngineReactive,
		CellL:  20,
		Atoms: []AtomSpec{
			{Species: "O", Position: [3]float64{10, 14, 10}},
			{Species: "H", Position: [3]float64{11.2, 14.6, 10}},
			{Species: "H", Position: [3]float64{8.8, 14.6, 10}},
		},
		Reactive: &ReactiveSpec{TempK: 600, Seed: 1},
		Steps:    10,
	}
	dir := filepath.Join(t.TempDir(), "job")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	steps := 0
	rep, err := QMDRunner{}.Run(context.Background(), spec, filepath.Join(dir, "ck"),
		func(step int, _, _ float64) {
			if steps = step; step == 2 {
				os.RemoveAll(dir) // this step's checkpoint has nowhere to go
			}
		})
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("want a checkpoint write error, got %v", err)
	}
	if steps != 2 || rep.Steps != 2 || len(rep.EnergiesHa) != 2 || len(rep.TemperaturesK) != 2 || rep.Results != nil {
		t.Fatalf("after %d steps: report %+v", steps, rep)
	}
}

// Engine-gated validation: reactive specs need a reactive section with
// a positive temperature; unknown engines are rejected.
func TestJobSpecEngineValidation(t *testing.T) {
	base := validSpec("v", 2)

	r := base
	r.Engine = EngineReactive
	if err := r.Validate(); err == nil {
		t.Fatal("reactive engine without reactive section accepted")
	}
	r.Reactive = &ReactiveSpec{TempK: -1}
	if err := r.Validate(); err == nil {
		t.Fatal("non-positive temp_k accepted")
	}
	r.Reactive.TempK = 300
	r.Config = qmd.LDCConfig{} // reactive jobs need no LDC config
	if err := r.Validate(); err != nil {
		t.Fatalf("valid reactive spec rejected: %v", err)
	}

	u := base
	u.Engine = "quantum-annealer"
	if err := u.Validate(); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// Retention: RetainMaxJobs bounds the terminal history — oldest pruned
// first, directories removed, counter exported.
func TestRetentionMaxJobs(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Config{
		DataDir: dir, Workers: 1, QueueCap: 8, Runner: &fakeRunner{},
		Logf: t.Logf, RetainMaxJobs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := m.Submit(validSpec("gc", 2))
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, m, st.ID, StatusCompleted)
		ids = append(ids, st.ID)
	}
	// The two oldest terminal jobs are gone: 404 and no directory.
	for _, id := range ids[:2] {
		if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("pruned job %s still known: %v", id, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "jobs", id)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("pruned job dir %s still on disk", id)
		}
	}
	if _, err := m.Get(ids[2]); err != nil {
		t.Fatalf("newest job pruned too: %v", err)
	}
	if got := m.Stats().Pruned; got != 2 {
		t.Fatalf("pruned counter = %d, want 2", got)
	}
}

// Retention by age: terminal jobs past RetainAge are pruned at the next
// enforcement point (here: recovery of a fresh manager over the store).
func TestRetentionAge(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, 1, 4, &fakeRunner{})
	st, err := m.Submit(validSpec("old", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, st.ID, StatusCompleted)
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(Config{
		DataDir: dir, Workers: 1, QueueCap: 4, Runner: &fakeRunner{},
		Logf: t.Logf, RetainAge: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	if _, err := m2.Get(st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aged-out job survived recovery: %v", err)
	}
	if got := m2.Stats().Pruned; got != 1 {
		t.Fatalf("pruned counter = %d, want 1", got)
	}
}
