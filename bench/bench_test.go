package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary when a
// run re-executes itself as `bench child ...`.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the tables in
// the code to one another.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs from endToEndDefs:\n json %v\n code %v", b.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs from perLayerDefs:\n json %v\n code %v", b.PerLayer, perLayerDefs)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %q %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s: name or unit too long", d.Name)
		}
	}
}

// TestSmoke runs every workload at toy size through both passes and
// checks the ledger, the span files and the compare gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at toy size (~10 s)")
	}
	out := t.TempDir()
	ledgerPath := filepath.Join(out, "ledger.json")
	l, err := run(runOpts{seed: 1, trace: "both", out: out, toy: true, setups: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the ledger, want %d", len(l.Workloads), len(workloads))
	}
	if l.Header.GoVersion == "" || l.Header.NProc < 1 || l.Header.Loop != loopType || l.Header.Clients != serveClients {
		t.Errorf("incomplete header: %+v", l.Header)
	}
	for i := range l.Workloads {
		w := &l.Workloads[i]
		if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed: %s", w.Name, w.Correct, w.Failed, w.Attempted, w.FailNote)
		}
		if !strings.HasPrefix(w.Reference, "invariants only") {
			t.Errorf("%s: toy run claims the reference check %q", w.Name, w.Reference)
		}
		for _, d := range endToEndDefs {
			r, ok := findRow(w.EndToEnd, d.Name)
			if !ok || r.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s [%s] missing or in unit %q", w.Name, d.Name, d.Unit, r.Unit)
			}
			if !(r.Value > 0) || math.IsInf(r.Value, 0) || r.N < 1 {
				t.Errorf("%s: %s = %v with n = %d, want a positive measurement", w.Name, d.Name, r.Value, r.N)
			}
		}
		for _, d := range append([]metricDef{{Name: "trace_overhead_frac", Unit: "ratio"}}, perLayerDefs...) {
			r, ok := findRow(w.PerLayer, d.Name)
			if !ok || r.Unit != d.Unit || math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
				t.Errorf("%s: per-layer metric %s [%s] missing, in unit %q, or not finite (%v)", w.Name, d.Name, d.Unit, r.Unit, r.Value)
			}
			// Probes run whatever the workload; every one must have measured.
			if d.Unit == "s" && !layerFromWorkload(d.Name) && !(r.Value > 0) {
				t.Errorf("%s: probe %s measured %v", w.Name, d.Name, r.Value)
			}
		}
		checkTrace(t, w)
	}
	// The layers each workload is there to exercise did register.
	for workload, metric := range map[string]string{
		"qmd-sic8": "scf.iterations", "qmd-27dom": "fft.transforms", "reactive-lial": "md.force_busy_s",
		"serve-standalone": "serve.jobs_completed", "serve-cluster": "lease.granted",
	} {
		for i := range l.Workloads {
			if w := &l.Workloads[i]; w.Name == workload {
				if r, _ := findRow(w.PerLayer, metric); !(r.Value > 0) {
					t.Errorf("%s: %s = %v, want > 0", workload, metric, r.Value)
				}
			}
		}
	}

	// compare: a ledger against itself is clean; a slowdown beyond the
	// 25 % bound and a failed op are each flagged.
	var buf bytes.Buffer
	if err := cmdCompare([]string{ledgerPath, ledgerPath}, &buf); err != nil {
		t.Errorf("compare x x: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), "worse") || strings.Contains(buf.String(), "unresolved") {
		t.Errorf("compare x x is not clean:\n%s", buf.String())
	}
	slow := mutate(t, l, out, "slow.json", func(m *ledger) {
		for i, r := range m.Workloads[0].EndToEnd {
			if r.Name == "time_to_solution_s" {
				m.Workloads[0].EndToEnd[i].Value *= 1.3
			}
		}
	})
	buf.Reset()
	if err := cmdCompare([]string{ledgerPath, slow}, &buf); !errors.Is(err, errRegression) {
		t.Errorf("compare with a 30 %% slowdown: err = %v\n%s", err, buf.String())
	}
	if n := strings.Count(buf.String(), "worse"); n != 1 {
		t.Errorf("compare with one slowed metric flags %d rows:\n%s", n, buf.String())
	}
	failing := mutate(t, l, out, "failing.json", func(m *ledger) { m.Workloads[3].Failed = 1 })
	buf.Reset()
	if err := cmdCompare([]string{ledgerPath, failing}, &buf); !errors.Is(err, errRegression) {
		t.Errorf("compare with a failed op: err = %v\n%s", err, buf.String())
	}
	// A NEW ledger that lacks a workload, or its end-to-end rows (a
	// --trace 1 run), has not been compared and must not pass.
	for name, f := range map[string]func(*ledger){
		"a workload":      func(m *ledger) { m.Workloads = m.Workloads[:4] },
		"end-to-end rows": func(m *ledger) { m.Workloads[1].EndToEnd = nil },
	} {
		partial := mutate(t, l, out, "partial.json", f)
		buf.Reset()
		if err := cmdCompare([]string{ledgerPath, partial}, &buf); !errors.Is(err, errRegression) ||
			!strings.Contains(buf.String(), "missing in NEW") {
			t.Errorf("compare with NEW lacking %s: err = %v\n%s", name, err, buf.String())
		}
	}
	buf.Reset()
	if err := cmdCompare([]string{failing, ledgerPath}, &buf); err != nil {
		t.Errorf("compare with fewer failed ops in NEW: %v\n%s", err, buf.String())
	}
}

// layerFromWorkload reports whether a per-layer metric comes from the
// workload's own run (spans, job timestamps, program counters) and may
// therefore read 0 on a workload that bypasses the layer.
func layerFromWorkload(name string) bool {
	if strings.HasPrefix(name, "serve.") || strings.HasSuffix(name, "busy_s") {
		return true
	}
	return name == "cache.replay_traj_s" || name == "core.unattributed_s"
}

// checkTrace reads the workload's span file and checks that it is one
// well-formed tree with one run id and the spans the workload promises.
func checkTrace(t *testing.T, w *workloadLedger) {
	t.Helper()
	data, err := os.ReadFile(w.TraceFile)
	if err != nil {
		t.Errorf("%s: %v", w.Name, err)
		return
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Errorf("%s: %v", w.TraceFile, err)
		return
	}
	if tf.RunID == "" || tf.Workload != w.Name {
		t.Errorf("%s: run id %q, workload %q", w.TraceFile, tf.RunID, tf.Workload)
	}
	if err := checkSpanTree(tf.Spans); err != nil {
		t.Errorf("%s: %v", w.TraceFile, err)
	}
	count := map[string]int{}
	for _, s := range tf.Spans {
		count[s.Name]++
	}
	want := map[string]int{"run": 1, "md.step": w.Attempted}
	if w.Op == "job" {
		want = map[string]int{"run": 1, "serve.job": w.Attempted, "serve.submit": w.Attempted,
			"serve.wait": w.Attempted, "serve.results_fetch": w.Attempted}
	}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("%s: spans %v, want %v", w.TraceFile, count, want)
	}
}

// mutate writes a deep copy of l, changed by f, and returns its path.
func mutate(t *testing.T, l *ledger, dir, name string, f func(*ledger)) string {
	t.Helper()
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	var m ledger
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	f(&m)
	path := filepath.Join(dir, name)
	if err := writeLedger(path, &m); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "time_to_solution_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		name       string
		d          metricDef
		base, next []float64
		want       string
	}{
		{"within bound", lower, []float64{10}, []float64{10.9}, "ok"},
		{"beyond bound", lower, []float64{10}, []float64{11.1}, "worse"},
		{"faster", lower, []float64{10}, []float64{5}, "ok"},
		{"throughput drop", higher, []float64{100}, []float64{85}, "worse"},
		{"throughput gain", higher, []float64{100}, []float64{150}, "ok"},
		{"medians of sets", lower, []float64{10, 10.1, 10.2}, []float64{11.4, 11.5, 11.6}, "worse"},
		{"noisy sets", lower, []float64{8, 10, 12}, []float64{9, 11, 13}, "unresolved"},
		{"noisy but every run better", lower, []float64{8, 10, 12}, []float64{5, 6, 7}, "ok"},
		{"set-up under the floor", setup, []float64{0.003}, []float64{0.006}, "ok"},
		{"set-up over the floor", setup, []float64{0.2}, []float64{0.3}, "worse"},
	} {
		if got := judge(c.d, c.base, c.next); !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// gives [3.5, 24.0, 160.0].
	xs := []float64{512, 1, 256, 2, 128, 4, 64, 8, 32, 16}
	if q1, q3 := quartiles(xs); q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
	if m := median(xs); m != 24 {
		t.Errorf("median = %v, want 24", m)
	}
	if q := quantile(xs, 0.9); q != 256 {
		t.Errorf("p90 = %v, want 256", q)
	}
	for n, want := range map[int]string{4: "max", 6: "max", 99: "max", 100: "p90", 300: "p95", 1000: "p99", 2000: "p99", 10000: "p99.9"} {
		if got, _ := tailStat(n); got != want {
			t.Errorf("tailStat(%d) = %s, want %s", n, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(s float64) time.Time { return tr.epoch.Add(time.Duration(s * float64(time.Second))) }
	root := tr.add(-1, "run", at(0), at(10))
	tr.add(root, "a", at(1), at(4))
	tr.add(root, "b", at(3), at(6)) // overlaps a: together they cover [1, 6]
	c := tr.open(root, "c", at(7))
	tr.add(c, "d", at(7), at(8))
	tr.end(c, at(9))
	spans := tr.finish()
	if err := checkSpanTree(spans); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{10 - 5 - 2, 3, 3, 1, 1} {
		if got := spans[i].SelfS; math.Abs(got-want) > 1e-9 {
			t.Errorf("span %q: self time %v, want %v", spans[i].Name, got, want)
		}
	}
	spans[4].EndS = 9.5
	if err := checkSpanTree(spans); err == nil {
		t.Error("a span that outlives its parent passed the tree check")
	}
	var off *tracer
	off.end(off.open(-1, "run", at(0)), at(1))
	if off.finish() != nil {
		t.Error("a nil tracer recorded spans")
	}
}
