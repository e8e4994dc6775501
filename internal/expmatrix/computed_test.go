package expmatrix

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ldcdft/internal/perf"
)

// Every builtin over a computed scenario runs against a fresh store and
// passes its validators — these are the gates the figure and table
// tests of the root package used to hold — and a second campaign over
// the same store restores every cell without calling the scenario. The
// three real-solver studies (≈ 20 s each, the memory sweep ≈ 5 s) skip
// under -short.
func TestBuiltinComputedSpecs(t *testing.T) {
	// The numbers EXPERIMENTS.md prints, pinned to the printed digits.
	headline := map[string]map[string]map[string]string{
		"fig5-weak-scaling":     {"cores=786432": {"efficiency": "0.9839", "s_per_step": "1323.6"}},
		"fig6-strong-scaling":   {"cores=786432": {"speedup": "12.86", "efficiency": "0.8037"}},
		"table1-thread-scaling": {"nodes=8,threads=4": {"pct_peak": "51.3"}, "nodes=16,threads=1": {"pct_peak": "24.4"}},
		"table2-rack-flops":     {"racks=1": {"tflops": "114.0"}, "racks=2": {"tflops": "227.8"}, "racks=48": {"tflops": "5440"}},
		"sec2-time-to-solution": {"row=2": {"speed": "114076", "s_per_scf": "441.2"}},
		"sec52-speedups":        {"tol_ha=0.01": {"speedup_nu2": "2.59", "speedup_nu3": "4.17"}, "tol_ha=0.001": {"speedup_nu3": "1.69"}},
		"sec52-crossover":       {"buffer_scale=1": {"crossover_l": "28.56", "crossover_atoms": "125"}, "buffer_scale=1.5": {"crossover_atoms": "423"}},
		"sec42-collective-io":   {"group=192": {"optimal_group": "192", "write_s": "17.0", "compression_ratio": "3.5"}},
		"sec54-portability":     {"node_peak_gf=396": {"node_gflops": "217.8"}},
		"fig7-buffer-convergence": {
			"mode=0,buf_n=1": {"ldc_err": "5.88"}, "mode=0,buf_n=4": {"ldc_err": "0.0798"},
			"mode=1,buf_n=1": {"dc_err": "5.94"}, "mode=1,buf_n=4": {"dc_err": "0.0592"},
		},
		// Deterministic observables only: live_heap_mib is a measurement,
		// ceiling-gated by the spec, like the host kernel rates.
		"sec33-streaming-memory": {
			"domains_per_axis=2": {"domains": "8", "occupied": "8", "workspaces": "4", "dof": "1619456"},
			"domains_per_axis=4": {"domains": "64", "occupied": "64", "workspaces": "4", "dof": "1037824"},
			"domains_per_axis=6": {"domains": "216", "occupied": "216", "workspaces": "4", "dof": "1259008"},
			"domains_per_axis=8": {"domains": "512", "occupied": "384", "workspaces": "4", "dof": "1155328"},
		},
		"sec55-verification": {"buf_n=5": {
			"energy_per_atom_ldc": "0.561999", "energy_per_atom_conv": "0.562940",
			"energy_diff_per_atom": "0.000942", "max_force_diff": "0.0351",
		}},
	}
	ran := 0
	for _, spec := range Builtins() {
		sc := scenarios[spec.Scenario]
		if sc.compute == nil {
			continue
		}
		ran++
		t.Run(spec.Name, func(t *testing.T) {
			if testing.Short() && slices.Contains([]string{"fig7-buffer-convergence", "sec55-verification", "sec33-streaming-memory"}, spec.Name) {
				t.Skip("real SCF solves")
			}
			store, err := OpenStore(t.TempDir(), spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			r := &Runner{Store: store, Logf: t.Logf}
			cells := len(ExpandGrid(spec.Axes))
			rep, err := r.Run(context.Background(), &spec)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass || rep.Ran != cells || rep.Cached != 0 {
				t.Fatalf("first campaign: pass=%v ran=%d cached=%d of %d cells\n%s",
					rep.Pass, rep.Ran, rep.Cached, cells, RenderMarkdown(rep))
			}
			want := headline[spec.Name]
			if want == nil {
				t.Fatal("no headline numbers pinned for this spec")
			}
			for _, c := range rep.Cells {
				for name, printed := range want[c.Key] {
					// Equal when rounded to the digits printed.
					decimals := 0
					if i := strings.IndexByte(printed, '.'); i >= 0 {
						decimals = len(printed) - i - 1
					}
					got, ok := c.Observables[name]
					if !ok || strconv.FormatFloat(got, 'f', decimals, 64) != printed {
						t.Errorf("%s %s = %v (present %v), EXPERIMENTS.md prints %s", c.Key, name, got, ok, printed)
					}
				}
				delete(want, c.Key)
			}
			if len(want) != 0 {
				t.Errorf("pinned cells not in the grid: %v", want)
			}

			scenarios[spec.Scenario] = scenario{compute: func(Base, Cell) (map[string]float64, error) {
				t.Error("scenario called for a cached cell")
				return nil, errors.New("cached cell recomputed")
			}}
			defer func() { scenarios[spec.Scenario] = sc }()
			rep, err = r.Run(context.Background(), &spec)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass || rep.Ran != 0 || rep.Cached != cells {
				t.Fatalf("second campaign: pass=%v ran=%d cached=%d of %d cells", rep.Pass, rep.Ran, rep.Cached, cells)
			}
		})
	}
	if ran != 12 {
		t.Fatalf("%d computed builtins, want 12", ran)
	}
}

// A computed scenario has no trajectory, so its spec needs no steps; a
// job scenario still does.
func TestSpecStepsOnlyForJobScenarios(t *testing.T) {
	parse := func(raw string) *Spec {
		var s Spec
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		return &s
	}
	computed := parse(`{"name": "racks", "scenario": "rack-flops", "base": {},
		"axes": [{"name": "racks", "values": [1, 4]}],
		"validators": [{"kind": "observable", "observable": "tflops", "reference": "paper_tflops", "min": 0.9, "max": 1.1}]}`)
	if err := computed.Validate(); err != nil {
		t.Fatalf("computed spec without steps rejected: %v", err)
	}
	job := parse(`{"name": "h2", "scenario": "ldc-h2", "base": {"grid_n": 12},
		"axes": [{"name": "buf_n", "values": [0, 1]}]}`)
	if err := job.Validate(); err == nil || !strings.Contains(err.Error(), "base.steps") {
		t.Fatalf("job spec without steps: %v", err)
	}
	noBounds := parse(`{"name": "x", "scenario": "rack-flops", "base": {}, "axes": [{"name": "racks", "values": [1]}],
		"validators": [{"kind": "observable", "observable": "tflops"}]}`)
	if err := noBounds.Validate(); err == nil {
		t.Fatal("observable validator without tolerance or bounds accepted")
	}
}

func TestObservableValidator(t *testing.T) {
	obs := map[string]float64{"tflops": 114, "paper_tflops": 113.23, "diff": 9.4e-4}

	missing := ValidatorSpec{Kind: KindObservable, Observable: "gflops", Max: 1}
	if out := missing.evaluateObservable(obs); out.Pass || out.Skipped || !strings.Contains(out.Detail, `"gflops"`) {
		t.Fatalf("missing observable: %+v", out)
	}
	noRef := ValidatorSpec{Kind: KindObservable, Observable: "tflops", Reference: "paper_gflops", Tolerance: 1}
	if out := noRef.evaluateObservable(obs); !out.Pass || !out.Skipped {
		t.Fatalf("cell without the reference must be skipped, not failed: %+v", out)
	}
	abs := ValidatorSpec{Kind: KindObservable, Observable: "tflops", Reference: "paper_tflops", Tolerance: 1}
	if out := abs.evaluateObservable(obs); !out.Pass || out.Measured != 114 {
		t.Fatalf("|114 − 113.23| ≤ 1: %+v", out)
	}
	abs.Tolerance = 0.5
	if out := abs.evaluateObservable(obs); out.Pass {
		t.Fatalf("|114 − 113.23| ≤ 0.5 passed: %+v", out)
	}
	rel := ValidatorSpec{Kind: KindObservable, Observable: "tflops", Reference: "paper_tflops", Min: 0.9, Max: 1.1}
	if out := rel.evaluateObservable(obs); !out.Pass || math.Abs(out.Measured-114/113.23) > 1e-12 {
		t.Fatalf("ratio in [0.9, 1.1]: %+v", out)
	}
	rel.Max = 1.001
	if out := rel.evaluateObservable(obs); out.Pass {
		t.Fatalf("ratio 1.0068 passed max 1.001: %+v", out)
	}
	bound := ValidatorSpec{Kind: KindObservable, Observable: "diff", Max: 1e-3}
	if out := bound.evaluateObservable(obs); !out.Pass {
		t.Fatalf("9.4e-4 ≤ 1e-3: %+v", out)
	}
	target := ValidatorSpec{Kind: KindObservable, Observable: "tflops", Target: 100, Tolerance: 5}
	if out := target.evaluateObservable(obs); out.Pass {
		t.Fatalf("114 within 5 of target 100 passed: %+v", out)
	}

	// buffer-converge over an observable with a per-cell reference: the
	// error against the reference decides, not the distance to the
	// largest buffer's value.
	mk := func(energies ...float64) ([]Cell, []*CellRecord) {
		var cells []Cell
		var recs []*CellRecord
		for i, e := range energies {
			cells = append(cells, Cell{"buf_n": float64(i)})
			recs = append(recs, &CellRecord{Observables: map[string]float64{"e": e, "ref": -1}})
		}
		return cells, recs
	}
	conv := ValidatorSpec{Kind: KindBufferConverge, Observable: "e", Reference: "ref"}
	if out := conv.evaluateMatrix(mk(-0.5, -0.9, -0.99)); !out.Pass || out.Measured != 0.5 {
		t.Fatalf("converging scan: %+v", out)
	}
	// Errors 0.5, 0.01, 0.05: the last buffer is worse than the middle
	// one — invisible if the last value were taken as the reference.
	if out := conv.evaluateMatrix(mk(-0.5, -0.99, -0.95)); out.Pass {
		t.Fatalf("non-monotone scan passed: %+v", out)
	}
	conv.Reference = "nope"
	if out := conv.evaluateMatrix(mk(-0.5, -0.9)); out.Pass {
		t.Fatalf("missing reference passed: %+v", out)
	}
	conv.Observable = ""
	if err := conv.Validate(); err == nil {
		t.Fatal("a reference without its observable validated")
	}
}

// A cell record written before records carried observables (the parent
// commit's bytes: no "observables" key) still loads, counts as complete
// and renders.
func TestParentCellRecordStillLoads(t *testing.T) {
	spec := bufferSpec("old-store")
	spec.Axes[0].Values = []float64{0}
	spec.MatrixValidators = nil
	store, err := OpenStore(t.TempDir(), spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	const record = `{
  "key": "buf_n=0",
  "values": {
    "buf_n": 0
  },
  "job_id": "j000001",
  "results": {
    "engine": "ldc",
    "steps": 2,
    "final_energy_ha": -1.1,
    "energies_ha": [
      -1.1,
      -1.1001
    ],
    "temperatures_k": [
      300,
      301
    ]
  },
  "completed_at": "2026-09-30T12:00:00Z"
}
`
	if err := os.WriteFile(filepath.Join(store.Dir(), "cells", "buf_n=0.json"), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := (&Runner{Store: store}).Render(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Cached != 1 || rep.Cells[0].JobID != "j000001" || rep.Cells[0].Observables != nil {
		t.Fatalf("render of a parent-format store: %+v", rep)
	}
	if md := RenderMarkdown(rep); !strings.Contains(md, "| buf_n | status | energy-drift | cell |") {
		t.Fatalf("rendered header changed for a job matrix:\n%s", md)
	}
}

// kernelRate shares the process-wide FLOP counter with whatever else
// runs in the process: a goroutine adding to it throughout a
// measurement never sees the total go down, and GOMAXPROCS is restored.
func TestKernelRateLeavesGlobalCounter(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := perf.Global.Total()
		for {
			select {
			case <-stop:
				return
			default:
			}
			perf.Global.Add(1)
			if now := perf.Global.Total(); now <= last {
				t.Errorf("global FLOP counter went from %d to %d during a measurement", last, now)
				return
			} else {
				last = now
			}
		}
	}()
	rate := kernelRate(2, 50*time.Millisecond)
	close(stop)
	wg.Wait()
	if rate <= 0 {
		t.Fatalf("kernel rate %g", rate)
	}
	if got := runtime.GOMAXPROCS(0); got != procs {
		t.Fatalf("GOMAXPROCS left at %d, was %d", got, procs)
	}
}
