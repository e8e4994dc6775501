package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"ldcdft/internal/serve"
	"ldcdft/internal/waitfor"
)

// TestClusterSmoke is the fault-injecting multi-node gate
// (`make cluster-smoke`): one coordinator and two worker nodes, all
// separate OS processes. A job array goes in through the qmdctl CLI;
// the worker holding the longest job is SIGKILLed mid-trajectory; the
// coordinator must expire its lease, requeue the orphaned job, and the
// surviving node must resume it from the last uploaded checkpoint and
// finish it — with energies bitwise identical to an uninterrupted
// standalone run of the same spec. Finally a zombie call with the dead
// worker's lease epoch must be fenced off with 409.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a three-process cluster")
	}
	dir := t.TempDir()
	qmdd := filepath.Join(dir, "qmdd")
	qmdctl := filepath.Join(dir, "qmdctl")
	if out, err := exec.Command("go", "build", "-o", qmdd, "ldcdft/cmd/qmdd").CombinedOutput(); err != nil {
		t.Fatalf("build qmdd: %v\n%s", err, out)
	}
	if out, err := exec.Command("go", "build", "-o", qmdctl, "ldcdft/cmd/qmdctl").CombinedOutput(); err != nil {
		t.Fatalf("build qmdctl: %v\n%s", err, out)
	}

	coordLogs := &syncBuffer{}
	coord := exec.Command(qmdd, "-mode", "coordinator", "-addr", "127.0.0.1:0",
		"-data", filepath.Join(dir, "coord"), "-lease-ttl", "2s")
	coord.Stderr = coordLogs
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	listenRe := regexp.MustCompile(`listening on (\S+) `)
	var base string
	if !waitfor.Until(30*time.Second, func() bool {
		m := listenRe.FindStringSubmatch(coordLogs.String())
		if m == nil {
			return false
		}
		base = "http://" + m[1]
		return true
	}) {
		t.Fatalf("no listen line in coordinator output:\n%s", coordLogs.String())
	}

	// The nodes run at different processor counts: whichever of them is
	// killed, the victim resumes under another GOMAXPROCS than it started
	// with, and the bitwise comparison below holds only if the engine's
	// numbers do not depend on it.
	startNode := func(name string, procs int) (*exec.Cmd, *syncBuffer) {
		t.Helper()
		logs := &syncBuffer{}
		cmd := exec.Command(qmdd, "-mode", "worker", "-coordinator", base, "-name", name,
			"-slots", "1", "-data", filepath.Join(dir, name))
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
		cmd.Stderr = logs
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		if !waitfor.Until(30*time.Second, func() bool {
			return strings.Contains(logs.String(), "worker "+name+" leasing from")
		}) {
			t.Fatalf("worker %s never became ready:\n%s", name, logs.String())
		}
		return cmd, logs
	}
	node1, _ := startNode("node1", 1)
	defer node1.Process.Kill()
	node2, _ := startNode("node2", 2)
	defer node2.Process.Kill()
	nodes := map[string]*exec.Cmd{"node1": node1, "node2": node2}

	// Job array: the victim is the costliest job (most steps on the same
	// grid), so the cost-aware pick leases it first; the fillers keep the
	// second node busy. CheckpointEvery 1 gives the victim a checkpoint
	// upload at every step boundary.
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
			"steps": %d,
			"checkpoint_every": 1
		}`, name, steps)
	}
	const victimSteps = 8
	batch := filepath.Join(dir, "jobs.json")
	array := fmt.Sprintf(`{"jobs":[%s,%s,%s]}`,
		spec("victim", victimSteps), spec("filler-1", 2), spec("filler-2", 2))
	if err := os.WriteFile(batch, []byte(array), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(qmdctl, "-addr", base, "submit", batch).CombinedOutput()
	if err != nil {
		t.Fatalf("qmdctl submit: %v\n%s", err, out)
	}
	ids := strings.Fields(string(out))
	if len(ids) != 3 {
		t.Fatalf("qmdctl submit printed %q, want three job IDs", out)
	}
	victimID := ids[0]

	getState := func(id string) serve.JobState {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st serve.JobState
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Wait until the victim is mid-trajectory with at least one
	// checkpoint uploaded (the upload at step k carries step k-1), then
	// SIGKILL its node — no drain, no release, no final upload.
	var victim serve.JobState
	if !waitfor.Until(2*time.Minute, func() bool {
		victim = getState(victimID)
		return victim.Status == serve.StatusRunning && victim.StepsDone >= 2
	}) {
		t.Fatalf("victim never reached step 2: %+v", victim)
	}
	doomed := nodes[victim.Worker]
	if doomed == nil {
		t.Fatalf("victim leased to unknown worker %q", victim.Worker)
	}
	t.Logf("killing %s (victim at step %d, epoch %d)", victim.Worker, victim.StepsDone, victim.LeaseEpoch)
	if err := doomed.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	doomed.Wait()
	victimEpoch := victim.LeaseEpoch
	survivor := "node1"
	if victim.Worker == "node1" {
		survivor = "node2"
	}

	// The coordinator must notice the missed renewals (lease TTL 2s),
	// requeue the orphan, and the surviving node must finish it.
	if !waitfor.Until(2*time.Minute, func() bool {
		return getState(victimID).Status == serve.StatusCompleted
	}) {
		st := getState(victimID)
		t.Fatalf("victim stuck at %s (worker %q, step %d) after the kill:\n%s",
			st.Status, st.Worker, st.StepsDone, coordLogs.String())
	}
	fin := getState(victimID)
	if fin.Worker != survivor {
		t.Fatalf("victim finished on %q, want survivor %s", fin.Worker, survivor)
	}
	if fin.StepsDone != victimSteps || len(fin.EnergiesHa) != victimSteps {
		t.Fatalf("victim final record: %d steps, %d energies", fin.StepsDone, len(fin.EnergiesHa))
	}
	metrics := func() string {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}()
	expiredRe := regexp.MustCompile(`qmdd_leases_expired_total (\d+)`)
	if m := expiredRe.FindStringSubmatch(metrics); m == nil || m[1] == "0" {
		t.Fatalf("no expired lease recorded after SIGKILL:\n%s", metrics)
	}
	// The three jobs share one spec up to name and steps, but were
	// submitted together: none found a completed source, so every
	// energy below, and both fillers', comes from a real solve.
	if !strings.Contains(metrics, "\nqmdd_jobs_reused_total 0\n") {
		t.Fatalf("a job of the array was admitted from another's checkpoint:\n%s", metrics)
	}

	// Zombie fence: a renew presenting the dead node's epoch must get 409.
	body := strings.NewReader(fmt.Sprintf(`{"epoch":%d}`, victimEpoch))
	resp, err := http.Post(base+"/v1/lease/"+victimID+"/renew", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("zombie renew with epoch %d: status %d, want 409", victimEpoch, resp.StatusCode)
	}

	// Everything in the array lands, and qmdctl agrees.
	if out, err := exec.Command(qmdctl, "-addr", base, "wait", ids[0], ids[1], ids[2]).CombinedOutput(); err != nil {
		t.Fatalf("qmdctl wait: %v\n%s", err, out)
	}

	// Ground truth: the same victim spec, uninterrupted, in a standalone
	// in-process manager (same engine). The requeued,
	// checkpoint-resumed trajectory must match it bit for bit — float64
	// survives the JSON round trip exactly, so == on the decoded values
	// is a bitwise comparison.
	var victimSpec serve.JobSpec
	if err := json.Unmarshal([]byte(spec("victim", victimSteps)), &victimSpec); err != nil {
		t.Fatal(err)
	}
	ref, err := serve.NewManager(serve.Config{
		DataDir: filepath.Join(dir, "ref"), Workers: 1, QueueCap: 4, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ref.Shutdown(ctx)
	}()
	refSt, err := ref.Submit(victimSpec)
	if err != nil {
		t.Fatal(err)
	}
	var refFin *serve.JobState
	if !waitfor.Until(2*time.Minute, func() bool {
		refFin, _ = ref.Get(refSt.ID)
		return refFin.Status == serve.StatusCompleted
	}) {
		t.Fatalf("reference run stuck: %+v", refFin)
	}
	if len(refFin.EnergiesHa) != victimSteps {
		t.Fatalf("reference energies: %d, want %d", len(refFin.EnergiesHa), victimSteps)
	}
	for i := range refFin.EnergiesHa {
		if fin.EnergiesHa[i] != refFin.EnergiesHa[i] {
			t.Fatalf("step %d energy diverged after crash-resume: cluster %v != standalone %v",
				i+1, fin.EnergiesHa[i], refFin.EnergiesHa[i])
		}
		if fin.TemperaturesK[i] != refFin.TemperaturesK[i] {
			t.Fatalf("step %d temperature diverged after crash-resume: cluster %v != standalone %v",
				i+1, fin.TemperaturesK[i], refFin.TemperaturesK[i])
		}
	}

	// Graceful teardown: the survivor drains on SIGTERM, then the
	// coordinator.
	if err := nodes[survivor].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := waitExit(nodes[survivor], time.Minute); err != nil {
		t.Fatalf("survivor shutdown: %v", err)
	}
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := waitExit(coord, time.Minute); err != nil {
		t.Fatalf("coordinator shutdown: %v\n%s", err, coordLogs.String())
	}
	if !strings.Contains(coordLogs.String(), "shutdown complete") {
		t.Fatalf("coordinator log missing graceful shutdown:\n%s", coordLogs.String())
	}
}

// waitExit waits for the process to exit cleanly within the budget.
func waitExit(cmd *exec.Cmd, budget time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(budget):
		cmd.Process.Kill()
		return fmt.Errorf("process did not exit within %s", budget)
	}
}
