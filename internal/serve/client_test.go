package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Every Client request carries the caller's context: against a daemon
// that accepts the connection and never answers, each method of both
// halves of the API returns the cancellation cause promptly.
func TestClientHonoursContext(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	c := NewClient(srv.URL)

	calls := map[string]func(ctx context.Context) error{
		"Submit":  func(ctx context.Context) error { _, err := c.Submit(ctx, validSpec("a", 1)); return err },
		"Job":     func(ctx context.Context) error { _, err := c.Job(ctx, "j1"); return err },
		"Jobs":    func(ctx context.Context) error { _, err := c.Jobs(ctx); return err },
		"Cancel":  func(ctx context.Context) error { _, err := c.Cancel(ctx, "j1"); return err },
		"Results": func(ctx context.Context) error { _, err := c.Results(ctx, "j1"); return err },
		"Events":  func(ctx context.Context) error { return c.Events(ctx, "j1", func(Event) {}) },
		"Wait":    func(ctx context.Context) error { _, err := c.Wait(ctx, "j1"); return err },
		"Acquire": func(ctx context.Context) error { _, err := c.Acquire(ctx, "w", time.Second); return err },
		"Renew":   func(ctx context.Context) error { _, err := c.Renew(ctx, "j1", 1); return err },
		"Step":    func(ctx context.Context) error { return c.Step(ctx, "j1", 1, 1, -1, 300) },
		"PutCheckpoint": func(ctx context.Context) error {
			return c.PutCheckpoint(ctx, "j1", 1, strings.NewReader("ck"))
		},
		"GetCheckpoint": func(ctx context.Context) error { _, err := c.GetCheckpoint(ctx, "j1", 1); return err },
		"Complete": func(ctx context.Context) error {
			_, err := c.Complete(ctx, "j1", CompleteRequest{Epoch: 1, Status: "completed"})
			return err
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			cause := errors.New("campaign interrupted")
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			time.AfterFunc(20*time.Millisecond, func() { cancel(cause) })
			start := time.Now()
			if err := call(ctx); !errors.Is(err, cause) {
				t.Fatalf("%s on a mute daemon: %v, want the cancellation cause", name, err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("%s took %s to notice the cancellation", name, d)
			}
		})
	}
}

// A non-2xx answer of a real Handler comes back as the sentinel of its
// status, carrying the status and the daemon's message.
func TestClientStatusSentinels(t *testing.T) {
	m, err := NewManager(Config{
		DataDir: t.TempDir(), QueueCap: 1, Distributed: true, LeaseTTL: time.Minute, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	st, err := c.Submit(ctx, validSpec("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Acquire(ctx, "w", 0)
	if err != nil || g == nil || g.JobID != st.ID {
		t.Fatalf("acquire: %+v, %v", g, err)
	}
	if _, err := c.Submit(ctx, validSpec("b", 1)); err != nil {
		t.Fatal(err)
	}
	sentinels := []error{ErrQueueFull, ErrShuttingDown, ErrNotFound, ErrFenced}
	for _, tc := range []struct {
		code int
		want error // nil: none of the sentinels
		msg  string
		call func() error
	}{
		{http.StatusTooManyRequests, ErrQueueFull, ErrQueueFull.Error(), func() error {
			_, err := c.Submit(ctx, validSpec("c", 1))
			return err
		}},
		{http.StatusNotFound, ErrNotFound, ErrNotFound.Error(), func() error {
			_, err := c.Job(ctx, "j404")
			return err
		}},
		{http.StatusConflict, ErrFenced, ErrStale.Error(), func() error {
			_, err := c.Renew(ctx, g.JobID, g.Epoch+1)
			return err
		}},
		{http.StatusInternalServerError, nil, "unknown completion status", func() error {
			_, err := c.Complete(ctx, g.JobID, CompleteRequest{Epoch: g.Epoch, Status: "bogus"})
			return err
		}},
		{http.StatusServiceUnavailable, ErrShuttingDown, ErrShuttingDown.Error(), func() error {
			if err := m.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			_, err := c.Submit(ctx, validSpec("d", 1))
			return err
		}},
	} {
		err := tc.call()
		for _, s := range sentinels {
			if errors.Is(err, s) != (s == tc.want) {
				t.Errorf("HTTP %d: errors.Is(%v, %v) = %v", tc.code, err, s, s != tc.want)
			}
		}
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(tc.code)) || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("HTTP %d: error %v lacks the status or the daemon's message %q", tc.code, err, tc.msg)
		}
	}
}

// stepRunner takes three steps whatever its context says, writing a
// checkpoint after each, so every step report and in-run upload of the
// worker is exercised.
type stepRunner struct{}

func (stepRunner) Run(ctx context.Context, spec JobSpec, ckPath string,
	onStep func(int, float64, float64)) (RunReport, error) {
	for i := 1; i <= 3; i++ {
		onStep(i, -float64(i), 300)
		os.WriteFile(ckPath, bytes.Repeat([]byte("x"), i), 0o644)
	}
	return RunReport{Steps: 3}, nil
}

// A coordinator that fences the lease on the first renew and never
// answers a step report or a checkpoint upload must not hold the
// trajectory: once the lease is lost, step reports and in-run uploads
// end with the job's context instead of waiting out their deadlines.
func TestStepReportDoesNotStallLostLease(t *testing.T) {
	const ttl = 250 * time.Millisecond
	release := make(chan struct{})
	mute := func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}
	fence := func(w http.ResponseWriter, _ *http.Request) {
		writeError(w, http.StatusConflict, ErrNotLeased)
	}
	spec := validSpec("a", 3)
	spec.CheckpointEvery = 1
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, LeaseGrant{JobID: "j1", Spec: spec, Epoch: 1, TTL: ttl})
	})
	mux.HandleFunc("POST /v1/lease/{id}/renew", fence)
	mux.HandleFunc("POST /v1/lease/{id}/steps", mute)
	mux.HandleFunc("PUT /v1/lease/{id}/checkpoint", mute)
	mux.HandleFunc("POST /v1/lease/{id}/complete", fence)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(release)

	w, err := NewWorker(WorkerConfig{
		Coordinator: srv.URL, Name: "w", WorkDir: t.TempDir(), Runner: stepRunner{}, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.acquire(context.Background())
	if err != nil || g == nil {
		t.Fatalf("acquire: %+v, %v", g, err)
	}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		w.runLease(context.Background(), g)
	}()
	select {
	case <-done:
		t.Logf("runLease returned after %s", time.Since(start).Round(time.Millisecond))
	case <-time.After(10 * ttl):
		t.Fatalf("runLease still running %s after the lease was fenced", 10*ttl)
	}
}

// seedSpecs are the specs the serve tests submit.
func seedSpecs() []JobSpec {
	reactive := JobSpec{
		Engine: EngineReactive,
		CellL:  20,
		Atoms: []AtomSpec{
			{Species: "O", Position: [3]float64{10, 14, 10}},
			{Species: "H", Position: [3]float64{11.2, 14.6, 10}},
			{Species: "H", Position: [3]float64{8.8, 14.6, 10}, Velocity: [3]float64{0, 1e-4, 0}},
		},
		Reactive: &ReactiveSpec{TempK: 600, SampleEvery: 5, ThermostatTauFs: 24, Seed: 1},
		Steps:    10,
		DtFs:     0.242,
	}
	return []JobSpec{validSpec("a", 3), tinyH2Spec("h2", 2), benchSpec(7), reactive}
}

// FuzzDecodeSpec feeds arbitrary bytes to the daemon's spec decoder, as
// POST /v1/jobs and recovery do. Properties: no panic; a spec that
// validates builds a system; and every decoded spec re-encodes to JSON
// that decodes to an equal spec.
func FuzzDecodeSpec(f *testing.F) {
	for _, s := range seedSpecs() {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, s := range []string{`{"steps": -1}`, `not json`, `{"unknown_field": 1}`,
		`{"config":{"pulay":true}}`, `{"engine":"reactive","reactive":null,"atoms":[]}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := DecodeSpec(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if spec.Validate() == nil {
			sys, err := spec.BuildSystem()
			if err != nil || len(sys.Atoms) != len(spec.Atoms) {
				t.Fatalf("valid spec did not build: %v", err)
			}
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeSpec(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", again, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", spec, back)
		}
	})
}

// FuzzLeaseBodies mutates the four lease request bodies — acquire, renew,
// step and complete — through the decoder their handlers share. The
// properties: no panic, and a body that decodes re-encodes to a value
// that decodes again to the same encoding. (Equal as encodings, not as
// Go values: omitempty turns a decoded empty slice into an absent one.)
func FuzzLeaseBodies(f *testing.F) {
	bodies := []any{
		acquireRequest{Worker: "w", WaitSeconds: 2.5},
		renewRequest{Epoch: 3},
		stepRequest{Epoch: 3, Step: 7, EnergyHa: -7.25, TempK: 301},
		CompleteRequest{Worker: "w", Epoch: 3, Status: "completed", Report: RunReport{
			Steps: 2, SCFIterations: 9, EnergiesHa: []float64{-1, -2}, TemperaturesK: []float64{300, 310},
			Results: &Results{Engine: "ldc", Steps: 2, FinalEnergyHa: -2}}},
	}
	for kind, b := range bodies {
		raw, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(kind), raw)
	}
	for _, s := range []string{`{"epoch":1,"extra":0}`, `{"epoch":1}{}`, `not json`, `{"report":{"energies_ha":[]}}`} {
		for kind := range bodies {
			f.Add(uint8(kind), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, raw []byte) {
		fresh := []func() any{
			func() any { return new(acquireRequest) },
			func() any { return new(renewRequest) },
			func() any { return new(stepRequest) },
			func() any { return new(CompleteRequest) },
		}[int(kind)%len(bodies)]
		v := fresh()
		if DecodeStrict(bytes.NewReader(raw), v) != nil {
			return
		}
		again, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back := fresh()
		if err := DecodeStrict(bytes.NewReader(again), back); err != nil {
			t.Fatalf("re-encoded body %s does not decode: %v", again, err)
		}
		if third, _ := json.Marshal(back); !bytes.Equal(third, again) {
			t.Fatalf("round trip changed the body:\n%s\n%s", again, third)
		}
	})
}
