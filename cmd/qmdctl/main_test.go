package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	qmd "ldcdft"
	"ldcdft/internal/serve"
)

func TestSplitSpecs(t *testing.T) {
	single, err := splitSpecs([]byte(`{"name":"a"}`))
	if err != nil || len(single) != 1 {
		t.Fatalf("single object: %v, %v", single, err)
	}
	arr, err := splitSpecs([]byte(`[{"name":"a"},{"name":"b"}]`))
	if err != nil || len(arr) != 2 {
		t.Fatalf("array: %v, %v", arr, err)
	}
	env, err := splitSpecs([]byte(`{"jobs":[{"name":"a"},{"name":"b"},{"name":"c"}]}`))
	if err != nil || len(env) != 3 {
		t.Fatalf("envelope: %v, %v", env, err)
	}
	if _, err := splitSpecs([]byte("  ")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := splitSpecs([]byte("[{bad")); err == nil {
		t.Fatal("malformed array accepted")
	}
}

// instantRunner completes any job immediately with one energy per step.
type instantRunner struct{}

func (instantRunner) Run(ctx context.Context, spec serve.JobSpec, ckPath string,
	onStep func(int, float64, float64)) (serve.RunReport, error) {
	var es, ts []float64
	for i := 1; i <= spec.Steps; i++ {
		onStep(i, -float64(i), 300)
		es, ts = append(es, -float64(i)), append(ts, 300)
	}
	return serve.RunReport{Steps: spec.Steps, EnergiesHa: es, TemperaturesK: ts}, nil
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := make(chan string, 1)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		out <- sb.String()
	}()
	if ferr != nil {
		t.Fatalf("command failed: %v", ferr)
	}
	select {
	case s := <-out:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("stdout capture stalled")
		return ""
	}
}

func TestSubmitWaitListStatusCancel(t *testing.T) {
	m, err := serve.NewManager(serve.Config{
		DataDir: t.TempDir(), Workers: 1, QueueCap: 8, Runner: instantRunner{}, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := serve.NewClient(srv.URL)
	ctx := context.Background()

	atomJSON := `{"species":"H","position":[4,4,4]}`
	spec := func(name string) string {
		return `{"name":"` + name + `","cell_l":8,"atoms":[` + atomJSON +
			`],"config":{"grid_n":8,"domains_per_axis":1,"ecut":2},"steps":2}`
	}
	batch := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(batch, []byte(`{"jobs":[`+spec("a")+","+spec("b")+`]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	out := capture(t, func() error { return submit(ctx, c, []string{batch}) })
	ids := strings.Fields(out)
	if len(ids) != 2 {
		t.Fatalf("submit printed %q, want two job IDs", out)
	}

	out = capture(t, func() error { return wait(ctx, c, ids) })
	for _, id := range ids {
		if !strings.Contains(out, id+" completed") {
			t.Fatalf("wait output %q missing completion of %s", out, id)
		}
	}

	out = capture(t, func() error { return list(ctx, c, nil) })
	if !strings.Contains(out, ids[0]) || !strings.Contains(out, "completed") {
		t.Fatalf("list output %q", out)
	}

	out = capture(t, func() error { return status(ctx, c, []string{ids[0]}) })
	var st serve.JobState
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("status printed invalid JSON %q: %v", out, err)
	}
	if st.ID != ids[0] || st.Status != "completed" || st.StepsDone != 2 {
		t.Fatalf("status state %+v", st)
	}

	// Cancelling a finished job is a 409 — surfaced as an error.
	if err := cancel(ctx, c, []string{ids[0]}); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("cancel of finished job: %v", err)
	}
	if err := status(ctx, c, []string{"j999"}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("status of unknown job: %v", err)
	}
}

func TestWatchStreamsEvents(t *testing.T) {
	m, err := serve.NewManager(serve.Config{
		DataDir: t.TempDir(), Workers: 1, QueueCap: 8, Runner: instantRunner{}, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := serve.NewClient(srv.URL)
	ctx := context.Background()

	st, err := m.Submit(serve.JobSpec{
		Name: "w", CellL: 8,
		Atoms:  []serve.AtomSpec{{Species: "H", Position: [3]float64{4, 4, 4}}},
		Config: qmd.LDCConfig{GridN: 8, DomainsPerAxis: 1, Ecut: 2},
		Steps:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error { return watch(ctx, c, []string{st.ID}) })
	if !strings.Contains(out, `"done"`) {
		t.Fatalf("watch output missing done event:\n%s", out)
	}
}
