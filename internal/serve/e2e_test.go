package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	qmd "ldcdft"
	"ldcdft/internal/waitfor"
)

// tinyH2Spec is a real 2-atom LDC-DFT workload small enough for
// daemon-level end-to-end tests (~0.3 s per MD step): one H₂ molecule
// in an 8-Bohr cell on a 12³ grid with a single domain, fully
// deterministic for a fixed seed.
func tinyH2Spec(name string, steps int) JobSpec {
	return JobSpec{
		Name:  name,
		CellL: 8,
		Atoms: []AtomSpec{
			{Species: "H", Position: [3]float64{3.3, 4, 4}},
			{Species: "H", Position: [3]float64{4.7, 4, 4}},
		},
		Config: qmd.LDCConfig{
			GridN: 12, DomainsPerAxis: 1, BufN: 0, Ecut: 4.0,
			KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxSCF: 80,
			EigenIters: 4, Seed: 1, EnergyTol: 1e-7, DensityTol: 1e-6,
		},
		Steps: steps,
	}
}

// TestDaemonEndToEnd is the acceptance test of the serving subsystem,
// driven through the HTTP API against the real SCF/MD engine:
//
//   - 4 small jobs against 2 workers and a queue capacity of 2 — the
//     5th submission is rejected with 429;
//   - completed jobs reproduce a direct RunQMD trajectory to 1e-10 Ha;
//   - one job is cancelled mid-trajectory; after a daemon restart over
//     the same store it stays terminal and its checkpoint resumes
//     bit-for-bit;
//   - a job interrupted by graceful shutdown is requeued and resumed by
//     the next daemon, again bit-for-bit;
//   - /metrics counters stay consistent throughout.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real SCF trajectories in -short mode")
	}

	// Reference trajectories, computed directly with the library API.
	const shortSteps, longSteps = 3, 8
	refSpec := tinyH2Spec("ref", shortSteps)
	refSys, err := refSpec.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	refShort, err := qmd.RunQMD(refSys, refSpec.Config, shortSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	refSys2, err := refSpec.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	refLong, err := qmd.RunQMD(refSys2, refSpec.Config, longSteps, 0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	m, err := NewManager(Config{DataDir: dir, Workers: 2, QueueCap: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())

	submit := func(spec JobSpec) (int, JobState) {
		t.Helper()
		body, _ := json.Marshal(spec)
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobState
		if resp.StatusCode == http.StatusCreated {
			json.NewDecoder(resp.Body).Decode(&st)
		}
		return resp.StatusCode, st
	}
	waitCond := func(what string, cond func() bool) {
		t.Helper()
		if !waitfor.Until(2*time.Minute, cond) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}

	// Fill both workers, then the queue, then get rejected.
	var ids []string
	for _, name := range []string{"a", "b"} {
		code, st := submit(tinyH2Spec(name, shortSteps))
		if code != http.StatusCreated {
			t.Fatalf("submit %s: %d", name, code)
		}
		ids = append(ids, st.ID)
	}
	waitCond("both workers busy", func() bool { return m.Stats().Running == 2 })
	code, stC := submit(tinyH2Spec("c", shortSteps))
	if code != http.StatusCreated {
		t.Fatalf("submit c: %d", code)
	}
	code, stD := submit(tinyH2Spec("d", longSteps)) // long: cancelled mid-flight below
	if code != http.StatusCreated {
		t.Fatalf("submit d: %d", code)
	}
	if code, _ := submit(tinyH2Spec("e", shortSteps)); code != http.StatusTooManyRequests {
		t.Fatalf("5th submission: %d, want 429", code)
	}
	if c := m.Stats(); c.QueueDepth != 2 || c.Rejected != 1 {
		t.Fatalf("post-admission counters %+v", c)
	}

	// Cancel d once it is mid-trajectory (at least one step done, more
	// than one remaining).
	waitCond("d mid-trajectory", func() bool {
		st, err := m.Get(stD.ID)
		return err == nil && st.Status == StatusRunning && st.StepsDone >= 1
	})
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+stD.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel d: %d", resp.StatusCode)
	}

	// a, b, c complete; d turns cancelled.
	for _, id := range append(ids, stC.ID) {
		waitCond("job "+id+" completed", func() bool {
			st, err := m.Get(id)
			return err == nil && st.Status == StatusCompleted
		})
	}
	waitCond("d cancelled", func() bool {
		st, err := m.Get(stD.ID)
		return err == nil && st.Status == StatusCancelled
	})

	// Served energies match the direct trajectory to 1e-10 Ha.
	for _, id := range append(ids, stC.ID) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.EnergiesHa) != shortSteps {
			t.Fatalf("job %s recorded %d energies, want %d", id, len(st.EnergiesHa), shortSteps)
		}
		for i, e := range st.EnergiesHa {
			if diff := e - refShort.Energies[i]; diff > 1e-10 || diff < -1e-10 {
				t.Fatalf("job %s step %d energy %.15f, direct run %.15f", id, i+1, e, refShort.Energies[i])
			}
		}
	}

	// The cancelled job left a checkpoint of its last completed step.
	stD2, _ := m.Get(stD.ID)
	if stD2.StepsDone < 1 || stD2.StepsDone >= longSteps {
		t.Fatalf("cancelled job stopped at step %d of %d", stD2.StepsDone, longSteps)
	}
	ckPath := m.root.CheckpointPath(stD.ID)
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("cancelled job has no checkpoint: %v", err)
	}

	// Metrics are consistent after the first wave.
	if c := m.Stats(); c.Submitted != 4 || c.Completed != 3 || c.Cancelled != 1 ||
		c.Rejected != 1 || c.Running != 0 || c.QueueDepth != 0 {
		t.Fatalf("final counters %+v", c)
	}
	var mbuf bytes.Buffer
	if err := m.WriteMetrics(&mbuf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"qmdd_jobs_completed_total 3", "qmdd_jobs_cancelled_total 1", "qmdd_jobs_rejected_total 1"} {
		if !bytes.Contains(mbuf.Bytes(), []byte(frag)) {
			t.Fatalf("metrics missing %q:\n%s", frag, mbuf.String())
		}
	}
	srv.Close()
	shutdown(t, m)

	// Daemon restart: terminal jobs stay terminal, and the cancelled
	// job's checkpoint resumes bit-for-bit to the uninterrupted
	// trajectory.
	m2, err := NewManager(Config{DataDir: dir, Workers: 2, QueueCap: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m2.Get(stD.ID)
	if err != nil || st.Status != StatusCancelled {
		t.Fatalf("cancelled job after restart: %+v, %v", st, err)
	}
	if c := m2.Stats(); c.QueueDepth != 0 || c.Running != 0 {
		t.Fatalf("restart requeued terminal jobs: %+v", c)
	}
	resumed, err := qmd.ResumeQMD(ckPath, tinyH2Spec("d", longSteps).Config, longSteps, 0, qmd.QMDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Energies) != longSteps {
		t.Fatalf("resumed trajectory has %d steps, want %d", len(resumed.Energies), longSteps)
	}
	for i := range resumed.Energies {
		if resumed.Energies[i] != refLong.Energies[i] {
			t.Fatalf("resume not bit-for-bit at step %d: %.17g vs %.17g",
				i+1, resumed.Energies[i], refLong.Energies[i])
		}
	}

	// Graceful-shutdown recovery: interrupt a running job, restart, and
	// let the next daemon resume it — the full trajectory must again be
	// bit-for-bit identical to the uninterrupted one.
	stF, err := m2.Submit(tinyH2Spec("f", longSteps))
	if err != nil {
		t.Fatal(err)
	}
	waitCond("f mid-trajectory", func() bool {
		st, err := m2.Get(stF.ID)
		return err == nil && st.Status == StatusRunning && st.StepsDone >= 1
	})
	shutdown(t, m2)
	st, _ = m2.Get(stF.ID)
	if st.Status != StatusQueued {
		t.Fatalf("interrupted job persisted as %s, want queued", st.Status)
	}

	m3, err := NewManager(Config{DataDir: dir, Workers: 2, QueueCap: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m3)
	waitCond("f resumed to completion", func() bool {
		st, err := m3.Get(stF.ID)
		return err == nil && st.Status == StatusCompleted
	})
	st, _ = m3.Get(stF.ID)
	if len(st.EnergiesHa) != longSteps {
		t.Fatalf("resumed job records %d energies, want %d", len(st.EnergiesHa), longSteps)
	}
	for i := range st.EnergiesHa {
		if st.EnergiesHa[i] != refLong.Energies[i] {
			t.Fatalf("daemon resume not bit-for-bit at step %d: %.17g vs %.17g",
				i+1, st.EnergiesHa[i], refLong.Energies[i])
		}
	}
}
