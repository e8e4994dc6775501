package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of
// the base median by which an end-to-end metric may worsen before
// compare calls it a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs is what a user of the system waits for or pays. An "op" is
// an MD step on the trajectory workloads and a job on the serve ones,
// so every metric is measured on every workload. The bounds follow the
// measured run-to-run spread of this 2-core shared box (README.md): its
// speed drifts by 10 % and more over minutes, so anything tighter than
// 25 % on a time would call noise a regression. bench_test.go holds this
// table equal to BENCHMARK.json.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"time_to_solution_s", "s", "lower", 0.25},
	{"op_wall_p50_s", "s", "lower", 0.25},
	{"op_wall_tail_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.15},
}

// metricRow is one measured value in the ledger. N is the sample count
// behind a timing and Stat says which statistic of those samples the
// value is.
type metricRow struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Stat  string  `json:"stat,omitempty"`
}

// workloadLedger is everything measured on one workload.
type workloadLedger struct {
	Name  string         `json:"name"`
	Why   string         `json:"why"`
	Op    string         `json:"op"`
	Sizes map[string]any `json:"sizes"`
	// Reference says how the outputs were checked: against the
	// committed reference for this seed, or by invariants only.
	Reference string `json:"reference"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FailNote  string `json:"fail_note,omitempty"`
	// TailStat is the highest percentile of the op wall times with at
	// least ten samples beyond it, or "max" when there is none.
	TailStat  string      `json:"tail_stat"`
	EndToEnd  []metricRow `json:"end_to_end,omitempty"`
	PerLayer  []metricRow `json:"per_layer,omitempty"`
	TraceFile string      `json:"trace_file,omitempty"`
}

// ledger is the file one `bench run` writes.
type ledger struct {
	Header    ledgerHeader     `json:"header"`
	Workloads []workloadLedger `json:"workloads"`
}

type ledgerHeader struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Toy        bool    `json:"toy,omitempty"`
	Clients    int     `json:"clients"`
	Loop       string  `json:"loop"`
	PollMs     float64 `json:"poll_interval_ms"`
	Note       string  `json:"note"`
}

func findRow(rows []metricRow, name string) (metricRow, bool) {
	for _, r := range rows {
		if r.Name == name {
			return r, true
		}
	}
	return metricRow{}, false
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func writeLedger(path string, l *ledger) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRows prints every metric by name with its unit.
func printRows(workload, kind string, rows []metricRow) {
	for _, r := range rows {
		note := r.Stat
		if r.N > 0 {
			note = fmt.Sprintf("%s, n=%d", r.Stat, r.N)
		}
		fmt.Printf("%-17s %-10s %-34s %14.6g %-6s %s\n", workload, kind, r.Name, r.Value, r.Unit, note)
	}
}

// ---- statistics --------------------------------------------------------

// quantile returns the q-quantile of xs by nearest rank (the smallest
// sample with at least q of the samples at or below it).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the mean of the two middle samples for even counts, as
// Python's statistics.median.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		v := median(xs)
		return v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// tailStat picks the highest of the usual percentiles that still has at
// least ten samples beyond it.
func tailStat(n int) (name string, q float64) {
	for _, c := range []struct {
		name     string
		permille int
	}{{"p99.9", 999}, {"p99", 990}, {"p95", 950}, {"p90", 900}} {
		if n*(1000-c.permille)/1000 >= 10 {
			return c.name, float64(c.permille) / 1000
		}
	}
	return "max", 1
}
