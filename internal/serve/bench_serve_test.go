package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Benchmarks for the coordinator's scheduling hot paths: the cost-aware
// queue pick, the acquire→complete lease cycle, and renewal heartbeats
// under contention. `make bench-smoke` runs each once; the numbers on
// record are bench/'s lease.acquire_complete_s and lease.renew_s probes.

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
