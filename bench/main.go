// Command bench is the repository's end-to-end and per-layer benchmark:
// five fixed workloads, each run in its own child process, checked
// against a committed reference, measured once untraced (what a user
// waits for) and once traced (where the time went), written as one JSON
// ledger that `bench compare` gates on. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:], os.Stdout)
	case "reference":
		err = cmdReference(os.Args[2:])
	case "child":
		err = cmdChild(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  bench run [--workload NAME] [--seed N] [--trace 0|1|both] [--seconds S] [--out DIR]
  bench compare BASE.json[,BASE2.json...] NEW.json[,NEW2.json...]
  bench reference [--seeds 1,2,3]
`)
	os.Exit(2)
}

// setupSamples is how many children set a workload up in the untraced
// pass; setup_s is their median.
const setupSamples = 9

// runOpts are the settings of one `bench run`.
type runOpts struct {
	workload string
	seed     int64
	trace    string
	out      string
	toy      bool
	// setups is setupSamples, except in the smoke test and `bench
	// reference`, which need no steady set-up time.
	setups int
}

func cmdRun(args []string) error {
	o := runOpts{setups: setupSamples}
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of initial velocities, builder RNGs and per-job seeds")
	fs.StringVar(&o.trace, "trace", "both", "0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics), both")
	fs.Float64("seconds", 15, "accepted because the benchmark driver passes it; workload sizes are fixed, so it changes nothing")
	fs.StringVar(&o.out, "out", "out", "directory for the ledger (OUT/ledger.json), span files and scratch data")
	fs.BoolVar(&o.toy, "toy", false, "toy sizes, invariant checks only (the smoke test)")
	fs.Parse(args)
	l, err := run(o)
	if err != nil {
		return err
	}
	for _, w := range l.Workloads {
		if !w.Correct {
			return fmt.Errorf("workload %s: outputs incorrect or operations failed: %s", w.Name, w.FailNote)
		}
	}
	return nil
}

// run measures the selected workloads and passes, prints every metric,
// writes the ledger, and — for a single workload and a single pass —
// ends with the one-line JSON result.
func run(o runOpts) (*ledger, error) {
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return nil, fmt.Errorf("--trace must be 0, 1 or both, got %q", o.trace)
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	l := &ledger{Header: header(o)}
	untraced, traced := o.trace != "1", o.trace != "0"

	var probes map[string]probeValue
	if traced {
		fmt.Fprintln(os.Stderr, "bench: layer probes")
		if probes, err = runProbes(o); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	for _, w := range selected {
		wl := workloadLedger{
			Name: w.Name, Why: w.Why, Op: w.Op, Sizes: w.sizes(o.toy), Correct: true,
		}
		var plainWall float64
		if untraced {
			fmt.Fprintf(os.Stderr, "bench: %s, untraced\n", w.Name)
			m, err := measure(w, o, false)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			m.verdict(&wl, w, ref, o)
			wl.EndToEnd = m.endToEnd(&wl)
			plainWall = m.res.WallS
		}
		if traced {
			fmt.Fprintf(os.Stderr, "bench: %s, traced\n", w.Name)
			m, err := measure(w, o, true)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			m.verdict(&wl, w, ref, o)
			wl.PerLayer = m.perLayer(probes)
			wl.TraceFile = m.traceFile
			if untraced {
				wl.PerLayer = append(wl.PerLayer, metricRow{
					Name: "trace_overhead_frac", Unit: "ratio", Value: m.res.WallS/plainWall - 1,
				})
			}
		}
		printRows(w.Name, "end-to-end", wl.EndToEnd)
		printRows(w.Name, "per-layer", wl.PerLayer)
		fmt.Printf("%-17s %-10s %-34s %14.6g %-6s %d of %d %ss failed; %s\n", w.Name, "end-to-end",
			"ops_failed_share", float64(wl.Failed)/float64(wl.Attempted), "ratio", wl.Failed, wl.Attempted, w.Op, wl.Reference)
		l.Workloads = append(l.Workloads, wl)
	}
	path := filepath.Join(o.out, "ledger.json")
	if err := writeLedger(path, l); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: ledger written to %s\n", path)
	if len(selected) == 1 && o.trace != "both" {
		if err := printResultLine(&l.Workloads[0], traced); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// printResultLine prints the single-run summary the benchmark driver
// reads: every end-to-end metric after an untraced run, every per-layer
// metric after a traced one.
func printResultLine(wl *workloadLedger, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	rows := wl.EndToEnd
	if traced {
		rows = wl.PerLayer
	}
	metrics := make(map[string]value, len(rows))
	for _, r := range rows {
		metrics[r.Name] = value{r.Value, r.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wl.Correct, wl.Attempted, wl.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func header(o runOpts) ledgerHeader {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return ledgerHeader{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Toy: o.toy,
		Clients: serveClients, Loop: loopType, PollMs: servePoll.Seconds() * 1e3,
		Note: "timings are medians unless stat says otherwise; n is the sample count; " +
			"tail_stat is the highest percentile with at least 10 samples beyond it",
	}
}

// measurement is one child run of a workload plus what the parent saw
// of the process.
type measurement struct {
	res       *childResult
	setups    []float64
	cpuS      float64
	rssMiB    float64
	traceFile string
}

// measure runs the workload in a child process. The untraced pass also
// starts set-up-only children so that setup_s is a median.
func measure(w workload, o runOpts, traced bool) (*measurement, error) {
	m := &measurement{}
	args := []string{"--workload", w.Name, "--seed", strconv.FormatInt(o.seed, 10)}
	if o.toy {
		args = append(args, "--toy")
	}
	if traced {
		m.traceFile = filepath.Join(o.out, "trace-"+w.Name+".json")
		args = append(args, "--trace-file", m.traceFile)
	}
	var ru *syscall.Rusage
	var err error
	if m.res, ru, err = spawn(o.out, args, nil); err != nil {
		return nil, err
	}
	m.cpuS = tv(ru.Utime) + tv(ru.Stime)
	m.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	m.setups = []float64{m.res.SetupS}
	if !traced {
		for i := 1; i < o.setups; i++ {
			r, _, err := spawn(o.out, append(args, "--setup-only"), nil)
			if err != nil {
				return nil, err
			}
			m.setups = append(m.setups, r.SetupS)
		}
	}
	return m, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// spawn re-executes this binary as `bench child ARGS` with a scratch
// directory of its own and decodes the JSON object it prints. The
// child learns when it was started from BENCH_SPAWN_NS, so set-up time
// includes process start.
func spawn(out string, args []string, env []string) (*childResult, *syscall.Rusage, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	tmp := filepath.Join(out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(tmp, "child-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self, append([]string{"child", "--dir", abs}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), env...)
	cmd.Env = append(cmd.Env, "TMPDIR="+abs, "BENCH_SPAWN_NS="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("child %v: %w", args, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, nil, fmt.Errorf("child %v: %w (output %q)", args, err, stdout.String())
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, nil, errors.New("no rusage for child process")
	}
	return &res, ru, nil
}

// cmdChild is the body of a child process: one workload run, one
// set-up, or the layer probes. It prints one JSON object on stdout.
func cmdChild(args []string) error {
	var (
		c         childCtx
		name      string
		tracePath string
		probes    string
	)
	fs := flag.NewFlagSet("child", flag.ExitOnError)
	fs.StringVar(&name, "workload", "", "")
	fs.Int64Var(&c.seed, "seed", 1, "")
	fs.BoolVar(&c.toy, "toy", false, "")
	fs.StringVar(&c.dir, "dir", "", "")
	fs.BoolVar(&c.setupOnly, "setup-only", false, "")
	fs.StringVar(&tracePath, "trace-file", "", "")
	fs.StringVar(&probes, "probes", "", "")
	fs.Parse(args)
	ns, err := strconv.ParseInt(os.Getenv("BENCH_SPAWN_NS"), 10, 64)
	if err != nil {
		return fmt.Errorf("BENCH_SPAWN_NS: %w", err)
	}
	c.spawn = time.Unix(0, ns)

	var res *childResult
	if probes != "" {
		res = &childResult{}
		if res.Layer, err = runProbeSet(probes, &c); err != nil {
			return err
		}
	} else {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		if tracePath != "" {
			c.tr = newTracer()
		}
		if res, err = w.run(&c); err != nil {
			return err
		}
		if tracePath != "" {
			tf := traceFile{
				RunID:    fmt.Sprintf("%s/seed%d/pid%d", name, c.seed, os.Getpid()),
				Workload: name, Seed: c.seed, Spans: c.tr.finish(),
			}
			if err := writeTrace(tracePath, tf); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
