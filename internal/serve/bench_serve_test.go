package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ldcdft/internal/atoms"
)

// Benchmarks for the coordinator's scheduling hot paths: the cost-aware
// queue pick, the acquire→complete lease cycle, and renewal heartbeats
// under contention; and for the JSON path of one job through the HTTP
// API. `make bench-smoke` runs each once; the numbers on record are
// bench/'s lease.acquire_complete_s and lease.renew_s probes, and
// BenchmarkHandlerJobCycle's allocs/op and B/op, which do not depend on
// the machine.

// reportRunner returns a precomputed report as soon as it has reported
// the report's steps.
type reportRunner struct{ rep RunReport }

func (r reportRunner) Run(ctx context.Context, spec JobSpec, ckPath string,
	onStep func(step int, energyHa, tempK float64)) (RunReport, error) {
	for i, e := range r.rep.EnergiesHa {
		onStep(i+1, e, r.rep.TemperaturesK[i])
	}
	return r.rep, nil
}

// BenchmarkHandlerJobCycle sends a serve-sized job — a 652-atom reactive
// spec of 5 steps, as bench/'s serve workloads submit — through Handler:
// POST /v1/jobs, one status GET once the job is done, GET its results.
// The job runs on an in-process slot whose runner returns the report a
// real run of the spec produced, so what is counted is the serving
// layer's own work: spec decode and store, state and results encodes,
// the responses. The job waits on its event stream rather than polling,
// so every cycle makes the same requests.
func BenchmarkHandlerJobCycle(b *testing.B) {
	sys, err := atoms.BuildLiAlInWater(atoms.LiAlParticleSpec{PairCount: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	snap := SnapshotSystem(sys)
	spec := JobSpec{
		Name: "bench", Engine: EngineReactive, CellL: snap.CellL, Atoms: snap.Atoms,
		Reactive: &ReactiveSpec{TempK: 600, Seed: 1}, Steps: 5, CheckpointEvery: 1,
	}
	rep, err := QMDRunner{}.Run(context.Background(), spec, filepath.Join(b.TempDir(), "ck"), func(int, float64, float64) {})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewManager(Config{DataDir: b.TempDir(), Workers: 1, QueueCap: 4, Runner: reportRunner{rep}})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	h := m.Handler()
	serve := func(method, path string, body []byte, want int) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if w.Code != want {
			b.Fatalf("%s %s: %d %s", method, path, w.Code, w.Body.Bytes())
		}
		return w
	}
	var resultBytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st JobState
		if err := json.Unmarshal(serve(http.MethodPost, "/v1/jobs", body, http.StatusCreated).Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
		events, off, err := m.Subscribe(st.ID)
		if err != nil {
			b.Fatal(err)
		}
		for range events {
		}
		off()
		if err := json.Unmarshal(serve(http.MethodGet, "/v1/jobs/"+st.ID, nil, http.StatusOK).Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
		if st.Status != StatusCompleted {
			b.Fatalf("job %s ended %s: %s", st.ID, st.Status, st.Error)
		}
		resultBytes = serve(http.MethodGet, "/v1/jobs/"+st.ID+"/results", nil, http.StatusOK).Body.Len()
	}
	b.ReportMetric(float64(resultBytes), "results-B")
}

// benchSpec varies grid size and step count so the cost-aware heap has
// real work to order.
func benchSpec(i int) JobSpec {
	s := validSpec(fmt.Sprintf("bench-%d", i), 1+i%7)
	s.Config.GridN = 8 + 4*(i%5)
	s.Priority = i % 3
	return s
}

// BenchmarkQueueCostPick measures one push+pop cycle against a standing
// cost-ordered queue of 1024 jobs — the coordinator's per-acquire
// scheduling work.
func BenchmarkQueueCostPick(b *testing.B) {
	q := jobQueue{}
	for i := 0; i < 1024; i++ {
		spec := benchSpec(i)
		q.push(&job{seq: int64(i), spec: spec, queueIdx: -1,
			state: JobState{Priority: spec.Priority}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := q.pop()
		q.push(j)
	}
}

func newBenchCoordinator(b *testing.B) *Manager {
	b.Helper()
	m, err := NewManager(Config{
		DataDir: b.TempDir(), QueueCap: 1 << 16, Distributed: true, LeaseTTL: time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// BenchmarkLeaseAcquireComplete measures the full distributed job cycle
// — submit, cost-aware acquire, completion report — with every
// parallel worker contending on the coordinator lock and the durable
// store.
func BenchmarkLeaseAcquireComplete(b *testing.B) {
	m := newBenchCoordinator(b)
	var n atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		worker := fmt.Sprintf("w%d", n.Add(1))
		for pb.Next() {
			i := int(n.Add(1))
			if _, err := m.Submit(benchSpec(i)); err != nil {
				b.Error(err)
				return
			}
			g, err := m.Acquire(context.Background(), worker, time.Second)
			if err != nil || g == nil {
				b.Errorf("acquire: (%v, %v)", g, err)
				return
			}
			if _, err := m.CompleteLease(g.JobID, CompleteRequest{
				Worker: worker, Epoch: g.Epoch, Status: "completed",
				Report: RunReport{Steps: g.Spec.Steps},
			}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkLeaseRenew measures heartbeat throughput: many workers
// renewing live leases concurrently — the steady-state load a large
// fleet puts on the coordinator.
func BenchmarkLeaseRenew(b *testing.B) {
	m := newBenchCoordinator(b)
	const fleet = 64
	grants := make([]*LeaseGrant, fleet)
	for i := range grants {
		if _, err := m.Submit(benchSpec(i)); err != nil {
			b.Fatal(err)
		}
		g, err := m.Acquire(context.Background(), fmt.Sprintf("w%d", i), time.Second)
		if err != nil || g == nil {
			b.Fatalf("acquire: (%v, %v)", g, err)
		}
		grants[i] = g
	}
	var n atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := grants[int(n.Add(1))%fleet]
		for pb.Next() {
			if _, err := m.RenewLease(g.JobID, g.Epoch); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
