package perf

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPhaseRecordsSpans(t *testing.T) {
	r := NewRegistry()
	p := r.Phase("test/phase")
	sp := p.Start()
	time.Sleep(time.Millisecond)
	sp.Stop()
	if p.Calls() != 1 {
		t.Fatalf("calls = %d, want 1", p.Calls())
	}
	if p.Total() < time.Millisecond {
		t.Fatalf("total = %v, want >= 1ms", p.Total())
	}
	if p.Max() < time.Millisecond || p.Max() > p.Total() {
		t.Fatalf("max = %v outside [1ms, total=%v]", p.Max(), p.Total())
	}
}

// TestRegistryConcurrent hammers one phase from many goroutines — the
// usage pattern of bsd.Pool workers — and checks the aggregate counters.
// Run under -race to verify the atomics-only claim.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const spansPerWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := r.Phase("hot/phase") // concurrent create + lookups
			for i := 0; i < spansPerWorker; i++ {
				sp := p.Start()
				sp.StopFlops(10)
				p.bytes.Add(3)
			}
		}()
	}
	wg.Wait()
	p := r.Phase("hot/phase")
	if got, want := p.Calls(), int64(workers*spansPerWorker); got != want {
		t.Fatalf("calls = %d, want %d", got, want)
	}
	if got, want := p.Flops(), int64(workers*spansPerWorker*10); got != want {
		t.Fatalf("flops = %d, want %d", got, want)
	}
	if got, want := p.Bytes(), int64(workers*spansPerWorker*3); got != want {
		t.Fatalf("bytes = %d, want %d", got, want)
	}
}

// TestExclusiveSpanAttributesGlobalDelta: StartExclusive must attribute
// exactly the Global counter growth between Start and Stop.
func TestExclusiveSpanAttributesGlobalDelta(t *testing.T) {
	Global.Reset()
	defer Global.Reset()
	r := NewRegistry()
	p := r.Phase("excl")
	Global.Add(1000) // before the span: not attributed
	sp := p.StartExclusive()
	Global.Add(100)
	Global.Add(23)
	sp.Stop()
	Global.Add(500) // after the span: not attributed
	if got := p.Flops(); got != 123 {
		t.Fatalf("exclusive span attributed %d flops, want 123", got)
	}
}

// TestResetKeepsPhasePointers: call sites cache *Phase in package vars, so
// Reset must zero in place rather than dropping the map.
func TestResetKeepsPhasePointers(t *testing.T) {
	r := NewRegistry()
	p := r.Phase("cached")
	p.Start().StopFlops(7)
	r.Reset()
	if p.Calls() != 0 || p.Flops() != 0 || p.Total() != 0 || p.Max() != 0 || p.Bytes() != 0 {
		t.Fatal("Reset did not zero the phase in place")
	}
	if r.Phase("cached") != p {
		t.Fatal("Reset invalidated the cached phase pointer")
	}
	p.Start().Stop()
	if p.Calls() != 1 {
		t.Fatal("cached pointer no longer records")
	}
}

// TestSnapshotOrdering: hottest phase first, zero-call phases omitted.
func TestSnapshotOrdering(t *testing.T) {
	r := NewRegistry()
	r.Phase("cold") // never spanned → omitted
	r.Phase("small").record(100)
	r.Phase("big").record(10_000)
	r.Phase("medium").record(5_000)
	snap := r.Snapshot()
	var names []string
	for _, s := range snap {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, ","), "big,medium,small"; got != want {
		t.Fatalf("snapshot order %q, want %q", got, want)
	}
}

// goldenRegistry builds a registry with hand-planted deterministic stats.
func goldenRegistry() *Registry {
	r := NewRegistry()
	p := r.Phase("scf/domain-solves")
	p.record(1_500_000_000)
	p.record(500_000_000)
	p.flops.Add(4_000_000_000)
	q := r.Phase("qio/checkpoint-write")
	q.record(250_000_000)
	q.bytes.Add(500_000_000)
	s := r.Phase("scf/chemical-potential")
	s.record(42_300)
	return r
}

func TestReportTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"phase                          calls      total       mean        max     GFLOP   GFLOP/s      MB/s\n" +
		"scf/domain-solves                  2     2.000s     1.000s     1.500s     4.000      2.00         -\n" +
		"qio/checkpoint-write               1   250.00ms   250.00ms   250.00ms         -         -    2000.0\n" +
		"scf/chemical-potential             1    42.30µs    42.30µs    42.30µs         -         -         -\n"
	if buf.String() != want {
		t.Fatalf("text report mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestReportJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		WallNs int64 `json:"wall_ns"`
		Phases []struct {
			Name    string  `json:"name"`
			Calls   int64   `json:"calls"`
			TotalNs int64   `json:"total_ns"`
			MeanNs  int64   `json:"mean_ns"`
			MaxNs   int64   `json:"max_ns"`
			Flops   int64   `json:"flops"`
			Bytes   int64   `json:"bytes"`
			GFlops  float64 `json:"gflops_per_sec"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(rep.Phases))
	}
	p := rep.Phases[0]
	if p.Name != "scf/domain-solves" || p.Calls != 2 || p.TotalNs != 2_000_000_000 ||
		p.MeanNs != 1_000_000_000 || p.MaxNs != 1_500_000_000 || p.Flops != 4_000_000_000 {
		t.Fatalf("unexpected first phase: %+v", p)
	}
	if p.GFlops < 1.999 || p.GFlops > 2.001 {
		t.Fatalf("gflops_per_sec = %v, want 2.0", p.GFlops)
	}
	if rep.Phases[1].Bytes != 500_000_000 {
		t.Fatalf("bytes = %d, want 5e8", rep.Phases[1].Bytes)
	}
	if rep.WallNs < 0 {
		t.Fatalf("wall_ns = %d", rep.WallNs)
	}
}
