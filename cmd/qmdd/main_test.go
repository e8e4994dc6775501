package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ldcdft/internal/waitfor"
)

// TestQMDDSmoke exercises the built daemon binary end to end: start on
// a random port, submit a tiny 2-atom job over HTTP and poll it to
// completion, resubmit it and verify the warm-start cache serves it
// without re-entering the SCF loop, cancel a third job mid-flight,
// check the /metrics counters, and shut the daemon down with SIGTERM.
// `make serve-smoke` runs exactly this test.
func TestQMDDSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "qmdd")
	if out, err := exec.Command("go", "build", "-o", bin, "ldcdft/cmd/qmdd").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	logs := &syncBuffer{}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", filepath.Join(dir, "data"), "-workers", "1", "-queue-cap", "4")
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Readiness: the daemon's first log line carries the resolved port.
	listenRe := regexp.MustCompile(`listening on (\S+) `)
	var base string
	if !waitfor.Until(30*time.Second, func() bool {
		m := listenRe.FindStringSubmatch(logs.String())
		if m == nil {
			return false
		}
		base = "http://" + m[1]
		return true
	}) {
		t.Fatalf("no listen line in daemon output:\n%s", logs.String())
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}

	spec := func(name string, steps int) string {
		return fmt.Sprintf(`{
			"name": %q,
			"cell_l": 8,
			"atoms": [
				{"species": "H", "position": [3.3, 4, 4]},
				{"species": "H", "position": [4.7, 4, 4]}
			],
			"config": {"grid_n": 12, "domains_per_axis": 1, "buf_n": 0, "ecut": 4.0,
				"kt": 0.05, "mix_alpha": 0.3, "anderson": true, "max_scf": 80,
				"eigen_iters": 4, "seed": 1, "energy_tol": 1e-7, "density_tol": 1e-6},
			"steps": %d
		}`, name, steps)
	}
	submit := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st map[string]any
		json.NewDecoder(resp.Body).Decode(&st)
		return resp.StatusCode, st
	}
	status := func(id string) map[string]any {
		t.Helper()
		code, body := get("/v1/jobs/" + id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, code, body)
		}
		var st map[string]any
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	waitFor := func(id string, cond func(map[string]any) bool, what string) map[string]any {
		t.Helper()
		var st map[string]any
		if !waitfor.Until(2*time.Minute, func() bool {
			st = status(id)
			return cond(st)
		}) {
			t.Fatalf("timed out waiting for %s of %s: %v", what, id, st)
		}
		return st
	}

	// First job completes with per-step energies.
	code, st1 := submit(spec("smoke", 2))
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %v", code, st1)
	}
	id1 := st1["id"].(string)
	fin := waitFor(id1, func(st map[string]any) bool { return st["status"] == "completed" }, "completion")
	if es, ok := fin["energies_ha"].([]any); !ok || len(es) != 2 {
		t.Fatalf("completed job energies: %v", fin["energies_ha"])
	}

	// An identical resubmission is served from the warm-start cache: its
	// trajectory is bitwise the first job's, and the daemon never enters
	// the SCF loop again (the scf/domain-solves phase call counter is
	// frozen between the two completions).
	phaseCallsRe := regexp.MustCompile(`qmd_phase_calls_total\{phase="scf/domain-solves"\} (\S+)`)
	phaseCalls := func() string {
		t.Helper()
		_, metrics := get("/metrics")
		m := phaseCallsRe.FindStringSubmatch(metrics)
		if m == nil {
			t.Fatalf("metrics missing scf/domain-solves phase calls:\n%s", metrics)
		}
		return m[1]
	}
	callsAfterCold := phaseCalls()
	code, stHit := submit(spec("smoke-again", 2))
	if code != http.StatusCreated {
		t.Fatalf("resubmit: %d %v", code, stHit)
	}
	finHit := waitFor(stHit["id"].(string),
		func(st map[string]any) bool { return st["status"] == "completed" }, "cached completion")
	if got := phaseCalls(); got != callsAfterCold {
		t.Fatalf("cached resubmission entered the SCF loop: domain-solves calls %s → %s", callsAfterCold, got)
	}
	hitEnergies, ok := finHit["energies_ha"].([]any)
	if !ok || len(hitEnergies) != 2 {
		t.Fatalf("cached job energies: %v", finHit["energies_ha"])
	}
	for i, e := range fin["energies_ha"].([]any) {
		if hitEnergies[i] != e {
			t.Fatalf("cached step %d energy %v != original %v", i+1, hitEnergies[i], e)
		}
	}
	_, metrics := get("/metrics")
	// 2 MD steps = 3 force evaluations (initial + one per step): the cold
	// job missed 3 times, the identical rerun hit 3 times.
	for _, frag := range []string{
		"qmdd_cache_hits_total 3",
		"qmdd_cache_misses_total 3",
	} {
		if !strings.Contains(metrics, frag) {
			t.Fatalf("cache metrics missing %q:\n%s", frag, metrics)
		}
	}
	savedRe := regexp.MustCompile(`qmdd_cache_scf_iterations_saved_total (\d+)`)
	if m := savedRe.FindStringSubmatch(metrics); m == nil || m[1] == "0" {
		t.Fatalf("no SCF iterations saved after an exact-hit rerun:\n%s", metrics)
	}

	// Third job is cancelled mid-flight.
	code, st2 := submit(spec("cancelme", 50))
	if code != http.StatusCreated {
		t.Fatalf("submit 2: %d %v", code, st2)
	}
	id2 := st2["id"].(string)
	waitFor(id2, func(st map[string]any) bool {
		return st["status"] == "running" && st["steps_done"].(float64) >= 1
	}, "first step")
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id2, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	waitFor(id2, func(st map[string]any) bool { return st["status"] == "cancelled" }, "cancellation")

	// Metrics reflect two completed jobs and one cancelled job.
	_, metrics = get("/metrics")
	for _, frag := range []string{
		"qmdd_jobs_submitted_total 3",
		"qmdd_jobs_completed_total 2",
		"qmdd_jobs_cancelled_total 1",
		"qmdd_jobs_running 0",
		"qmd_phase_busy_seconds_total{phase=\"scf/domain-solves\"}",
	} {
		if !strings.Contains(metrics, frag) {
			t.Fatalf("metrics missing %q:\n%s", frag, metrics)
		}
	}

	// SIGTERM drains and exits cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, logs.String())
		}
	case <-time.After(time.Minute):
		cmd.Process.Kill()
		t.Fatalf("daemon did not exit after SIGTERM\n%s", logs.String())
	}
	if out := logs.String(); !strings.Contains(out, "shutdown complete") {
		t.Fatalf("daemon log missing graceful shutdown:\n%s", out)
	}
}

// syncBuffer is a goroutine-safe log sink for the daemon's stderr.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
