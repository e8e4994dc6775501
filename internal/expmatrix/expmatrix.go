// Package expmatrix is the one experiment surface of the reproduction:
// every table and figure of the paper's evaluation is a declarative
// spec — a parameter grid (cores, racks, temperature, particle size,
// LDC buffer size) over a registered scenario, plus observable
// validators with tolerances — run by one Runner, kept in one durable
// store and rendered as one pass/fail matrix.
//
// An experiment expands its axes into cells. A job scenario turns a
// cell into a serve.JobSpec submitted through a serve.Client to a qmdd
// daemon (cmd/qmdexp's in-process one listens on loopback); a computed
// scenario (computed.go: the machine-model tables, the §3.3 memory
// sweep, Fig. 7, §5.5) evaluates the cell's named observables in the runner's process, each
// beside the paper's own number. Either way the completed cell lands in
// a durable per-experiment store (crash-safe JSON via qio), so a killed
// campaign resumes on rerun without recomputing finished cells.
// Validators are first class: per-cell checks (an observable against a
// target or reference, energy drift, temperature tracking, H₂ census,
// production-rate ranges, g(r) first peak) run against each cell's
// record, and matrix-level checks (the Arrhenius fit, the buffer-size
// convergence scan) run across the whole grid. cmd/qmdexp is the CLI.
package expmatrix

import (
	"fmt"
	"strconv"
	"strings"
)

// Axis is one dimension of the parameter grid. Values are float64 on
// the wire; integer-valued axes (pair counts, buffer sizes) are
// truncated where consumed.
type Axis struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Base holds the scenario parameters a cell does not override — the
// fixed coordinates of the experiment.
type Base struct {
	// Reactive-scenario knobs.
	PairCount       int     `json:"pair_count,omitempty"` // n in LinAln
	TempK           float64 `json:"temp_k,omitempty"`
	SampleEvery     int     `json:"sample_every,omitempty"`
	ThermostatTauFs float64 `json:"thermostat_tau_fs,omitempty"`

	// LDC-scenario knobs.
	GridN          int     `json:"grid_n,omitempty"`
	DomainsPerAxis int     `json:"domains_per_axis,omitempty"`
	BufN           int     `json:"buf_n,omitempty"`
	Ecut           float64 `json:"ecut,omitempty"`

	// Shared trajectory knobs.
	Steps           int     `json:"steps"`
	DtFs            float64 `json:"dt_fs,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
	CheckpointEvery int     `json:"checkpoint_every,omitempty"`
}

// Spec is a declarative experiment: a scenario, a grid, and the
// validators that decide the matrix.
type Spec struct {
	// Name identifies the experiment; it is the store directory name
	// and must be a valid single path element.
	Name  string `json:"name"`
	Title string `json:"title,omitempty"`
	// Scenario names the registered scenario: a job generator
	// (scenario.go: "lial-water", "ldc-h2") or a computed one
	// (computed.go).
	Scenario string `json:"scenario"`
	Base     Base   `json:"base"`
	Axes     []Axis `json:"axes"`
	// Validators run per cell against its Results record.
	Validators []ValidatorSpec `json:"validators,omitempty"`
	// MatrixValidators run once across all completed cells.
	MatrixValidators []ValidatorSpec `json:"matrix_validators,omitempty"`
}

// Validate rejects specs the harness cannot run.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("expmatrix: experiment needs a name")
	case strings.ContainsAny(s.Name, "/\\ ") || s.Name == "." || s.Name == "..":
		return fmt.Errorf("expmatrix: invalid experiment name %q", s.Name)
	case len(s.Axes) == 0:
		return fmt.Errorf("expmatrix: at least one axis is required")
	}
	sc, ok := scenarios[s.Scenario]
	if !ok {
		return fmt.Errorf("expmatrix: unknown scenario %q", s.Scenario)
	}
	if sc.job != nil && s.Base.Steps <= 0 {
		return fmt.Errorf("expmatrix: base.steps must be positive, got %d", s.Base.Steps)
	}
	seen := map[string]bool{}
	for _, ax := range s.Axes {
		if ax.Name == "" || len(ax.Values) == 0 {
			return fmt.Errorf("expmatrix: axis needs a name and values")
		}
		if seen[ax.Name] {
			return fmt.Errorf("expmatrix: duplicate axis %q", ax.Name)
		}
		seen[ax.Name] = true
	}
	for _, v := range append(append([]ValidatorSpec(nil), s.Validators...), s.MatrixValidators...) {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Cell is one point of the expanded grid: axis name → value.
type Cell map[string]float64

// Get returns the cell's value for an axis, falling back to def.
func (c Cell) Get(name string, def float64) float64 {
	if v, ok := c[name]; ok {
		return v
	}
	return def
}

// ExpandGrid enumerates the cartesian product of the axes in a
// deterministic order: the last axis varies fastest, matching nested
// loops over the axes as declared.
func ExpandGrid(axes []Axis) []Cell {
	cells := []Cell{{}}
	for _, ax := range axes {
		next := make([]Cell, 0, len(cells)*len(ax.Values))
		for _, c := range cells {
			for _, v := range ax.Values {
				nc := make(Cell, len(c)+1)
				for k, val := range c {
					nc[k] = val
				}
				nc[ax.Name] = v
				next = append(next, nc)
			}
		}
		cells = next
	}
	return cells
}

// CellKey renders the cell as a deterministic store key, axes in spec
// order: "temp_k=300,pairs=8". It doubles as the job-name suffix.
func CellKey(axes []Axis, c Cell) string {
	parts := make([]string, 0, len(axes))
	for _, ax := range axes {
		parts = append(parts, ax.Name+"="+strconv.FormatFloat(c[ax.Name], 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}
