package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ldcdft/internal/waitfor"
)

func postJob(t *testing.T, srv *httptest.Server, spec JobSpec) (*http.Response, JobState) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobState
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

func getState(t *testing.T, srv *httptest.Server, id string) (int, JobState) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobState
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func waitHTTPStatus(t *testing.T, srv *httptest.Server, id string, want Status) JobState {
	t.Helper()
	var st JobState
	ok := waitfor.Until(10*time.Second, func() bool {
		code, cur := getState(t, srv, id)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d", id, code)
		}
		st = cur
		if st.Status != want && st.Status.Terminal() {
			t.Fatalf("job %s at %s, want %s", id, st.Status, want)
		}
		return st.Status == want
	})
	if !ok {
		t.Fatalf("job %s at %s, want %s", id, st.Status, want)
	}
	return st
}

func TestHTTPLifecycle(t *testing.T) {
	gate := make(chan struct{})
	fr := &fakeRunner{started: make(chan string, 8), gate: map[string]chan struct{}{"blocked": gate}}
	m := newTestManager(t, t.TempDir(), 1, 1, fr)
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// Health.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Submit: the blocked job occupies the worker, the next fills the
	// queue, the third is rejected with 429.
	resp1, blocked := postJob(t, srv, validSpec("blocked", 1))
	if resp1.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp1.StatusCode)
	}
	if loc := resp1.Header.Get("Location"); loc != "/v1/jobs/"+blocked.ID {
		t.Fatalf("location %q", loc)
	}
	<-fr.started
	resp2, queued := postJob(t, srv, validSpec("q", 1))
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("second submit: %d", resp2.StatusCode)
	}
	resp3, _ := postJob(t, srv, validSpec("rejected", 1))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d, want 429", resp3.StatusCode)
	}

	// Invalid specs are 400, among them configs the domain decomposition
	// cannot build.
	undecomposable := func(config string) string {
		return `{"cell_l":8,"atoms":[{"species":"H","position":[4,4,4]}],"steps":1,"config":` + config + `}`
	}
	for _, body := range []string{`{"steps": -1}`, `not json`, `{"unknown_field": 1}`, `{"config":{"pulay":true}}`, `{"steps": 1} {}`,
		undecomposable(`{"grid_n":10,"domains_per_axis":3,"ecut":2}`),
		undecomposable(`{"grid_n":8,"domains_per_axis":1,"buf_n":-1,"ecut":2}`),
		undecomposable(`{"grid_n":12,"domains_per_axis":2,"buf_n":4,"ecut":2}`),
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad spec %q: %d, want 400", body, resp.StatusCode)
		}
	}

	// Unknown ID is 404.
	if code, _ := getState(t, srv, "j99999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", code)
	}

	// Cancel the queued job (202), then cancelling again conflicts (409).
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d, want 202", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: %d, want 409", resp.StatusCode)
	}

	// Release the worker; the blocked job completes; the list shows
	// both admitted jobs (the rejected one was never admitted).
	close(gate)
	waitHTTPStatus(t, srv, blocked.ID, StatusCompleted)
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobState
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list))
	}

	// Metrics reflect the lifecycle.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	metrics := buf.String()
	for _, frag := range []string{
		"qmdd_jobs_submitted_total 2",
		"qmdd_jobs_completed_total 1",
		"qmdd_jobs_cancelled_total 1",
		"qmdd_jobs_rejected_total 1",
		"qmdd_queue_depth 0",
		"qmdd_jobs_running 0",
		"qmd_perf_wall_seconds",
	} {
		if !strings.Contains(metrics, frag) {
			t.Fatalf("metrics missing %q:\n%s", frag, metrics)
		}
	}
}

func TestHTTPEventStream(t *testing.T) {
	gate := make(chan struct{})
	fr := &fakeRunner{started: make(chan string, 8), gate: map[string]chan struct{}{"a": gate}}
	m := newTestManager(t, t.TempDir(), 1, 4, fr)
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	_, st := postJob(t, srv, validSpec("a", 3))
	<-fr.started // subscribe while running so step events are still ahead

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	close(gate)

	sc := bufio.NewScanner(resp.Body)
	var types []string
	var lastStep Event
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		types = append(types, ev.Type)
		if ev.Type == "step" {
			lastStep = ev
		}
	}
	if len(types) == 0 || types[0] != "status" || types[len(types)-1] != "done" {
		t.Fatalf("event sequence %v", types)
	}
	if lastStep.Step != 3 || lastStep.EnergyHa != -3 {
		t.Fatalf("last step event %+v", lastStep)
	}

	// Events for an unknown job are 404.
	resp404, err := http.Get(srv.URL + "/v1/jobs/j99999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown job: %d", resp404.StatusCode)
	}
}

func TestMetricsEndpointContentType(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1, 4, &fakeRunner{})
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want := "text/plain; version=0.0.4; charset=utf-8"
	if got := resp.Header.Get("Content-Type"); got != want {
		t.Fatalf("content type %q, want %q", got, want)
	}
}
