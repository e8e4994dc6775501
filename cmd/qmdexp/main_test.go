package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ldcdft/internal/expmatrix"
	"ldcdft/internal/waitfor"
)

// TestExpSmoke is the `make exp-smoke` gate: a 2×2 reactive mini-matrix
// (pairs × temperature) runs through a real standalone qmdd daemon as a
// job array, the observable validators evaluate, and the matrix
// renders. The first campaign is SIGKILLed mid-flight; the rerun must
// resume from the store — completed cells cached, only the remainder
// resubmitted — and the finished matrix must pass, including the
// Arrhenius fit against the paper's 0.068 eV. A qmdctl results fetch
// against one of the array's jobs rides along.
func TestExpSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon and harness binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"qmdd", "qmdexp", "qmdctl"} {
		bin := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bin, "ldcdft/cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	// Standalone daemon on a random port.
	daemonLogs := &syncBuffer{}
	daemon := exec.Command(bins["qmdd"], "-addr", "127.0.0.1:0",
		"-data", filepath.Join(dir, "qmdd-data"), "-workers", "2", "-queue-cap", "8")
	daemon.Stderr = daemonLogs
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()
	listenRe := regexp.MustCompile(`listening on (\S+) `)
	var base string
	if !waitfor.Until(30*time.Second, func() bool {
		m := listenRe.FindStringSubmatch(daemonLogs.String())
		if m == nil {
			return false
		}
		base = "http://" + m[1]
		return true
	}) {
		t.Fatalf("no listen line in daemon output:\n%s", daemonLogs.String())
	}

	// The mini-matrix: budgets picked so every cell deterministically
	// produces H₂ (seeded builder + seeded thermostat) in ~2 s.
	specPath := filepath.Join(dir, "smoke.json")
	const expName = "smoke-2x2"
	spec := fmt.Sprintf(`{
		"name": %q,
		"title": "exp-smoke 2×2 reactive matrix",
		"scenario": "lial-water",
		"base": {"steps": 600, "seed": 3},
		"axes": [
			{"name": "pairs", "values": [5, 6]},
			{"name": "temp_k", "values": [900, 1500]}
		],
		"validators": [
			{"kind": "temp-track", "tolerance": 0.3},
			{"kind": "census-h2", "min": 1},
			{"kind": "rate-range", "min": 1e10, "max": 1e14}
		],
		"matrix_validators": [
			{"kind": "arrhenius", "target": 0.068, "tolerance": 0.05}
		]
	}`, expName)
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	expData := filepath.Join(dir, "exp-data")
	cellsDir := filepath.Join(expData, "experiments", expName, "cells")
	storedCells := func() int {
		matches, _ := filepath.Glob(filepath.Join(cellsDir, "*.json"))
		return len(matches)
	}

	// Campaign 1: killed as soon as the first cell lands in the store.
	// The daemon keeps running — only the harness dies.
	run1Logs := &syncBuffer{}
	run1 := exec.Command(bins["qmdexp"], "-addr", base, "-data", expData, "run", specPath)
	run1.Stdout, run1.Stderr = run1Logs, run1Logs
	if err := run1.Start(); err != nil {
		t.Fatal(err)
	}
	if !waitfor.Until(2*time.Minute, func() bool { return storedCells() >= 1 }) {
		run1.Process.Kill()
		t.Fatalf("no cell stored before timeout\nharness:\n%s\ndaemon:\n%s", run1Logs.String(), daemonLogs.String())
	}
	if err := run1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	run1.Wait()
	done := storedCells()
	if done < 1 || done >= 4 {
		t.Fatalf("killed campaign left %d/4 cells stored; want a partial matrix", done)
	}
	t.Logf("campaign killed with %d/4 cells stored", done)

	// Campaign 2: resumes, completes, passes — exit code 0 is the gate.
	run2Logs := &syncBuffer{}
	run2 := exec.Command(bins["qmdexp"], "-addr", base, "-data", expData, "run", specPath)
	run2.Stdout, run2.Stderr = run2Logs, run2Logs
	if err := run2.Run(); err != nil {
		t.Fatalf("resumed campaign failed: %v\nharness:\n%s\ndaemon:\n%s", err, run2Logs.String(), daemonLogs.String())
	}

	// The report: every cell completed, the killed campaign's cells came
	// from the store (no recomputation), and every check passed.
	var rep expmatrix.Report
	raw, err := os.ReadFile(filepath.Join(expData, "experiments", expName, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("matrix failed:\n%s", run2Logs.String())
	}
	if rep.Cached < done || rep.Cached+rep.Ran != 4 {
		t.Fatalf("resume accounting: cached=%d ran=%d (killed campaign stored %d)", rep.Cached, rep.Ran, done)
	}
	for _, c := range rep.Cells {
		if len(c.Checks) != 3 || !c.Pass {
			t.Fatalf("cell %s: %d checks, pass=%v", c.Key, len(c.Checks), c.Pass)
		}
	}
	if len(rep.Matrix) != 1 || rep.Matrix[0].Kind != "arrhenius" || !rep.Matrix[0].Pass {
		t.Fatalf("arrhenius matrix check: %+v", rep.Matrix)
	}
	t.Logf("Arrhenius: %s", rep.Matrix[0].Detail)

	// Rendered output: summary markdown on stdout and report.md on disk.
	if out := run2Logs.String(); !strings.Contains(out, "| pairs | temp_k |") {
		t.Fatalf("rendered matrix missing from output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(expData, "experiments", expName, "report.md")); err != nil {
		t.Fatalf("report.md: %v", err)
	}

	// qmdctl fetches one array job's results straight off the daemon.
	var jobID string
	for _, c := range rep.Cells {
		if !c.Cached {
			jobID = c.JobID
			break
		}
	}
	if jobID == "" {
		jobID = rep.Cells[0].JobID
	}
	out, err := exec.Command(bins["qmdctl"], "-addr", base, "results", jobID).CombinedOutput()
	if err != nil {
		t.Fatalf("qmdctl results %s: %v\n%s", jobID, err, out)
	}
	var res struct {
		Engine string `json:"engine"`
		Census struct {
			H2 int `json:"h2"`
		} `json:"census"`
		PHStart float64 `json:"ph_start"`
		PHEnd   float64 `json:"ph_end"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("qmdctl results output: %v\n%s", err, out)
	}
	if res.Engine != "reactive" || res.Census.H2 < 1 {
		t.Fatalf("qmdctl results: engine=%q h2=%d\n%s", res.Engine, res.Census.H2, out)
	}
	// The pH proxies of Fig. 9(a) are finite at either end of the run.
	if math.IsNaN(res.PHStart+res.PHEnd) || math.IsInf(res.PHStart+res.PHEnd, 0) {
		t.Fatalf("qmdctl results: pH proxy %g → %g\n%s", res.PHStart, res.PHEnd, out)
	}

	// SIGTERM drains the daemon cleanly.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, daemonLogs.String())
		}
	case <-time.After(time.Minute):
		daemon.Process.Kill()
		t.Fatalf("daemon did not exit after SIGTERM\n%s", daemonLogs.String())
	}
}

// syncBuffer is a goroutine-safe sink for subprocess output.
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

// An experiment spec file holds exactly one JSON value: a second spec or
// anything else after the first is an error, never silently dropped.
func TestLoadSpecRefusesTrailingData(t *testing.T) {
	s, ok := expmatrix.Builtin("sec52-crossover")
	if !ok {
		t.Fatal("builtin sec52-crossover missing")
	}
	one, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"one.json", string(one) + "\n", true},
		{"two.json", string(one) + "\n" + `{"name":"second"}`, false},
		{"garbage.json", string(one) + " trailing", false},
		{"unknown.json", `{"name":"x","scenario":"crossover","pulay":true}`, false},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := loadSpec(path)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.ok && got.Name != s.Name:
			t.Errorf("%s: loaded %q, want %q", c.name, got.Name, s.Name)
		case !c.ok && err == nil:
			t.Errorf("%s: accepted", c.name)
		}
	}
}
