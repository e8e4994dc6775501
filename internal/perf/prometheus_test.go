package perf

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestPrometheusGolden pins the full exposition output for the golden
// registry (the same fixture backing the text/JSON golden tests), with
// the wall clock fixed so every byte is deterministic. Anything that
// changes this rendering breaks deployed scrape configs — update the
// expectation deliberately.
func TestPrometheusGolden(t *testing.T) {
	rep := goldenRegistry().Export()
	rep.Wall = 3 * time.Second
	var buf bytes.Buffer
	if err := WritePrometheusReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"# HELP qmd_perf_wall_seconds Wall-clock since the last registry reset.\n" +
		"# TYPE qmd_perf_wall_seconds gauge\n" +
		"qmd_perf_wall_seconds 3\n" +
		"# HELP qmd_phase_calls_total Completed spans per instrumented phase.\n" +
		"# TYPE qmd_phase_calls_total counter\n" +
		"qmd_phase_calls_total{phase=\"scf/domain-solves\"} 2\n" +
		"qmd_phase_calls_total{phase=\"qio/checkpoint-write\"} 1\n" +
		"qmd_phase_calls_total{phase=\"scf/chemical-potential\"} 1\n" +
		"# HELP qmd_phase_busy_seconds_total Accumulated span time per phase (CPU-seconds-like for concurrent phases).\n" +
		"# TYPE qmd_phase_busy_seconds_total counter\n" +
		"qmd_phase_busy_seconds_total{phase=\"scf/domain-solves\"} 2\n" +
		"qmd_phase_busy_seconds_total{phase=\"qio/checkpoint-write\"} 0.25\n" +
		"qmd_phase_busy_seconds_total{phase=\"scf/chemical-potential\"} 4.23e-05\n" +
		"# HELP qmd_phase_max_seconds Longest single span per phase since the last reset.\n" +
		"# TYPE qmd_phase_max_seconds gauge\n" +
		"qmd_phase_max_seconds{phase=\"scf/domain-solves\"} 1.5\n" +
		"qmd_phase_max_seconds{phase=\"qio/checkpoint-write\"} 0.25\n" +
		"qmd_phase_max_seconds{phase=\"scf/chemical-potential\"} 4.23e-05\n" +
		"# HELP qmd_phase_flops_total Floating-point operations attributed to the phase.\n" +
		"# TYPE qmd_phase_flops_total counter\n" +
		"qmd_phase_flops_total{phase=\"scf/domain-solves\"} 4e+09\n" +
		"# HELP qmd_phase_bytes_total I/O bytes attributed to the phase.\n" +
		"# TYPE qmd_phase_bytes_total counter\n" +
		"qmd_phase_bytes_total{phase=\"qio/checkpoint-write\"} 5e+08\n"
	if buf.String() != want {
		t.Fatalf("prometheus rendering mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestPrometheusLiveRegistry: the Registry-level entry point renders the
// live snapshot (non-deterministic wall) without error and carries the
// phase samples.
func TestPrometheusLiveRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"qmd_perf_wall_seconds ",
		"qmd_phase_calls_total{phase=\"scf/domain-solves\"} 2\n",
		"qmd_phase_bytes_total{phase=\"qio/checkpoint-write\"} 5e+08\n",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("live rendering missing %q:\n%s", frag, out)
		}
	}
}

// TestPrometheusLabelEscaping: a hostile phase name must come out with
// the three exposition-format escapes applied.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Phase("we\"ird\\pha\nse").record(1_000_000_000)
	rep := r.Export()
	rep.Wall = time.Second
	var buf bytes.Buffer
	if err := WritePrometheusReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	want := "qmd_phase_calls_total{phase=\"we\\\"ird\\\\pha\\nse\"} 1\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaping wrong, want fragment %q in:\n%s", want, buf.String())
	}
}
