package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	qmd "ldcdft"
	"ldcdft/internal/qio"
	"ldcdft/internal/reactive"
)

// resultsRunner completes instantly with cannedResults.
type resultsRunner struct{}

func (resultsRunner) Run(ctx context.Context, spec JobSpec, ckPath string,
	onStep func(step int, energyHa, tempK float64)) (RunReport, error) {
	for i := 1; i <= spec.Steps; i++ {
		onStep(i, -1, 300)
	}
	return RunReport{Steps: spec.Steps, Results: cannedResults(spec.Steps)}, nil
}

// cannedResults is a Results payload whose floats need all 17 digits —
// any re-encoding that loses one shows in their bits.
func cannedResults(steps int) *Results {
	res := &Results{
		Engine:            EngineReactive,
		Steps:             steps,
		FinalEnergyHa:     -1.25,
		Census:            &reactive.Census{H2: 4, Water: 10},
		RatePerPairPerSec: 2e11,
		PairCount:         3,
		FinalSystem:       &SystemSnapshot{CellL: 20},
	}
	for i := 1; i <= steps; i++ {
		res.EnergiesHa = append(res.EnergiesHa, -1.25-1/float64(3*i))
		res.TemperaturesK = append(res.TemperaturesK, 300+math.Pi/float64(i))
		res.FinalSystem.Atoms = append(res.FinalSystem.Atoms, AtomSpec{Species: "H",
			Position: [3]float64{math.Sqrt(float64(i)), 1 / float64(7*i), math.Nextafter(10, 11)},
			Velocity: [3]float64{1e-300 * float64(i), -math.E, 0}})
	}
	return res
}

// storedResults reads job id's results over the byte path: the file
// OpenResults serves, and what it decodes to.
func storedResults(t *testing.T, m *Manager, id string) ([]byte, *Results) {
	t.Helper()
	f, err := m.OpenResults(id)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	var res Results
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return raw, &res
}

// sameResultBits fails unless got carries want's energies and final
// positions bit for bit.
func sameResultBits(t *testing.T, got, want *Results) {
	t.Helper()
	bits := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d values, want %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %v, want %v", what, i, a[i], b[i])
			}
		}
	}
	bits("final energy", []float64{got.FinalEnergyHa}, []float64{want.FinalEnergyHa})
	bits("energies", got.EnergiesHa, want.EnergiesHa)
	if got.FinalSystem == nil || len(got.FinalSystem.Atoms) != len(want.FinalSystem.Atoms) {
		t.Fatalf("final system %+v, want %d atoms", got.FinalSystem, len(want.FinalSystem.Atoms))
	}
	for i, a := range got.FinalSystem.Atoms {
		bits("final position", a.Position[:], want.FinalSystem.Atoms[i].Position[:])
	}
}

// Completed jobs persist results.json; OpenResults and the HTTP
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

	_, res := storedResults(t, m, st.ID)
	if res.Engine != EngineReactive || res.Census == nil || res.Census.H2 != 4 {
		t.Fatalf("results round-trip mangled: %+v", res)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", st.ID, qio.JobResultsFile)); err != nil {
		t.Fatalf("results.json not persisted: %v", err)
	}

	if _, err := m.OpenResults("j99999999"); !errors.Is(err, ErrNotFound) {
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
	if _, err := m.OpenResults(st.ID); !errors.Is(err, ErrNoResults) {
		t.Fatalf("got %v, want ErrNoResults", err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job without results over HTTP: %d, want 404", resp.StatusCode)
	}
}

// GET /v1/jobs/{id}/results answers with the bytes of results.json as
// stored, which decode to the runner's Results bit for bit — whether an
// in-process slot or a worker node (over the lease API) completed it.
func TestResultsServedAsStored(t *testing.T) {
	check := func(t *testing.T, dir, url, id string) {
		t.Helper()
		resp, err := http.Get(url + "/v1/jobs/" + id + "/results")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("GET results: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		stored, err := os.ReadFile(filepath.Join(dir, "jobs", id, qio.JobResultsFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, stored) {
			t.Fatalf("body (%d bytes) differs from results.json (%d bytes)", len(body), len(stored))
		}
		if bytes.Count(stored, []byte("\n")) != 1 || !bytes.HasSuffix(stored, []byte("\n")) {
			t.Fatalf("results.json is not one compact line")
		}
		var got Results
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		sameResultBits(t, &got, cannedResults(3))
	}
	t.Run("slot", func(t *testing.T) {
		dir := t.TempDir()
		m := newTestManager(t, dir, 1, 4, resultsRunner{})
		defer shutdown(t, m)
		srv := httptest.NewServer(m.Handler())
		defer srv.Close()
		st := runToEnd(t, m, validSpec("slot", 3))
		check(t, dir, srv.URL, st.ID)
	})
	t.Run("worker", func(t *testing.T) {
		dir := t.TempDir()
		m := newCoordinator(t, dir, time.Minute)
		defer shutdown(t, m)
		srv := httptest.NewServer(m.Handler())
		defer srv.Close()
		_, cancel, done := startWorker(t, srv.URL, "node", 1, resultsRunner{})
		defer func() { cancel(); <-done }()
		st := runToEnd(t, m, validSpec("node", 3))
		check(t, dir, srv.URL, st.ID)
	})
}

// A completion under a stale epoch carries results that are staged
// before the lease check and must be dropped after it: no results.json,
// no temp. The live holder's completion then publishes its own.
func TestStaleCompletionPublishesNoResults(t *testing.T) {
	dir := t.TempDir()
	m := newCoordinator(t, dir, time.Minute)
	defer shutdown(t, m)
	st := mustSubmit(t, m, validSpec("zombie", 2))
	old := mustAcquire(t, m, "old")
	if _, err := m.CompleteLease(st.ID, CompleteRequest{Worker: "old", Epoch: old.Epoch, Status: "released"}); err != nil {
		t.Fatal(err)
	}
	live := mustAcquire(t, m, "live")
	jobDir := filepath.Join(dir, "jobs", st.ID)
	_, err := m.CompleteLease(st.ID, CompleteRequest{Worker: "old", Epoch: old.Epoch, Status: "completed",
		Report: RunReport{Steps: 2, Results: cannedResults(2)}})
	if !errors.Is(err, ErrStale) {
		t.Fatalf("stale completion: %v, want ErrStale", err)
	}
	ents, err := os.ReadDir(jobDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() == qio.JobResultsFile || strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stale completion left %s in the job directory", e.Name())
		}
	}
	if _, err := m.OpenResults(st.ID); !errors.Is(err, ErrNoResults) {
		t.Fatalf("results after a stale completion: %v, want ErrNoResults", err)
	}
	want := cannedResults(2)
	want.FinalEnergyHa = -2
	if _, err := m.CompleteLease(st.ID, CompleteRequest{Worker: "live", Epoch: live.Epoch, Status: "completed",
		Report: RunReport{Steps: 2, Results: want}}); err != nil {
		t.Fatal(err)
	}
	_, got := storedResults(t, m, st.ID)
	sameResultBits(t, got, want)
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
	_, res := storedResults(t, m, st.ID)
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
