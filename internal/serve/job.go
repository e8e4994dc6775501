// Package serve is the job-serving layer of the LDC-DFT engine: a
// bounded priority queue with admission control, leases (kept in each
// job's own record) under which in-process slots and worker nodes run
// QMD trajectories with cooperative cancellation, durable per-job state
// (specs and results as JSON next to qio checkpoints, so a killed
// daemon recovers its queue and resumes in-flight work), and a
// stdlib-only HTTP API with an SSE step stream and Prometheus metrics,
// and the one Go client of that API. cmd/qmdd is the daemon wrapping it.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	qmd "ldcdft"
	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
)

// AtomSpec is one atom of a submitted system: a predefined species
// symbol plus position (Bohr) and optional velocity (Bohr per atomic
// time unit).
type AtomSpec struct {
	Species  string     `json:"species"`
	Position [3]float64 `json:"position"`
	Velocity [3]float64 `json:"velocity,omitempty"`
}

// Engine names of JobSpec.Engine.
const (
	// EngineLDC is the LDC-DFT QMD engine (the default).
	EngineLDC = "ldc"
	// EngineReactive is the reactive surrogate-field MD engine — the
	// hydrogen-on-demand production workload (§6) and the job type the
	// experiment harness (internal/expmatrix) submits in bulk.
	EngineReactive = "reactive"
)

// ReactiveSpec configures a reactive-engine job (Engine ==
// EngineReactive). The LDC Config is ignored for these jobs.
type ReactiveSpec struct {
	// TempK is the thermostat target temperature (required, > 0).
	TempK float64 `json:"temp_k"`
	// SampleEvery is the census sampling stride in MD steps (0 = the
	// reactive default, 50).
	SampleEvery int `json:"sample_every,omitempty"`
	// ThermostatTauFs is the Berendsen coupling time (0 = default 24 fs).
	ThermostatTauFs float64 `json:"thermostat_tau_fs,omitempty"`
	// Seed seeds velocity initialization for fresh trajectories.
	Seed int64 `json:"seed,omitempty"`
}

// JobSpec is a submitted QMD job: the atomic system, the physics
// configuration, and the trajectory length. It is persisted verbatim as
// spec.json and is immutable after admission.
type JobSpec struct {
	// Name is a client-chosen label, echoed in status responses.
	Name string `json:"name,omitempty"`
	// Priority orders the queue: higher runs first, FIFO within a
	// priority level.
	Priority int `json:"priority,omitempty"`

	// Engine selects the trajectory driver: "" or "ldc" runs the
	// LDC-DFT QMD engine over Config; "reactive" runs the reactive
	// surrogate-field MD over Reactive.
	Engine string `json:"engine,omitempty"`

	CellL float64    `json:"cell_l"`
	Atoms []AtomSpec `json:"atoms"`

	// Config is the LDC engine's own configuration; its json tags make
	// the wire form, zero values fall through to the engine defaults.
	Config   qmd.LDCConfig `json:"config,omitzero"`
	Reactive *ReactiveSpec `json:"reactive,omitempty"`

	Steps int     `json:"steps"`
	DtFs  float64 `json:"dt_fs,omitempty"` // 0 = paper default (0.242 fs)

	// CheckpointEvery is the checkpoint cadence in MD steps (0 = every
	// step — the durable default that makes daemon restarts cheap); read
	// it through CheckpointCadence.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// CheckpointCadence resolves CheckpointEvery's default: the runner
// checkpoints, and a worker node uploads, at this one cadence.
func (s *JobSpec) CheckpointCadence() int {
	if s.CheckpointEvery == 0 {
		return 1
	}
	return s.CheckpointEvery
}

// EngineKind resolves the engine name, defaulting to EngineLDC.
func (s *JobSpec) EngineKind() string {
	if s.Engine == "" {
		return EngineLDC
	}
	return s.Engine
}

// DecodeSpec is the one JobSpec decoder, for submissions (the daemon's
// and qmdctl's) and for the spec.json a restarted daemon recovers: an
// unknown field is an error,
// never silently dropped, so a job cannot resume as a different
// computation from the one submitted.
func DecodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	err := DecodeStrict(r, &spec)
	return spec, err
}

// DecodeStrict decodes the one JSON value r holds into v — the job spec,
// every lease request body and qmdexp's experiment spec files: an unknown
// field or anything but white space after the value is an error.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// Validate rejects specs the engine cannot run, with messages meant for
// API clients.
func (s *JobSpec) Validate() error {
	switch {
	case s.Steps <= 0:
		return fmt.Errorf("steps must be positive, got %d", s.Steps)
	case s.CellL <= 0:
		return fmt.Errorf("cell_l must be positive, got %g", s.CellL)
	case len(s.Atoms) == 0:
		return fmt.Errorf("at least one atom is required")
	case s.DtFs < 0:
		return fmt.Errorf("dt_fs must be non-negative, got %g", s.DtFs)
	case s.CheckpointEvery < 0:
		return fmt.Errorf("checkpoint_every must be non-negative, got %d", s.CheckpointEvery)
	}
	switch s.EngineKind() {
	case EngineLDC:
		switch {
		case s.Config.GridN <= 0:
			return fmt.Errorf("config.grid_n must be positive, got %d", s.Config.GridN)
		case s.Config.DomainsPerAxis <= 0:
			return fmt.Errorf("config.domains_per_axis must be positive, got %d", s.Config.DomainsPerAxis)
		case s.Config.Ecut <= 0:
			return fmt.Errorf("config.ecut must be positive, got %g", s.Config.Ecut)
		}
		// The engine's own rules: grid.Decompose's, and dc's that the
		// extended domain fits in the cell. The check builds no domains.
		c := s.Config
		if err := grid.CheckDecompose(c.GridN, c.DomainsPerAxis, c.BufN); err != nil {
			return fmt.Errorf("config: %w", err)
		}
		if edge := c.GridN/c.DomainsPerAxis + 2*c.BufN; edge > c.GridN {
			return fmt.Errorf("config: the extended domain edge, %d points, exceeds grid_n %d; reduce buf_n", edge, c.GridN)
		}
	case EngineReactive:
		switch {
		case s.Reactive == nil:
			return fmt.Errorf("reactive engine requires a reactive section")
		case s.Reactive.TempK <= 0:
			return fmt.Errorf("reactive.temp_k must be positive, got %g", s.Reactive.TempK)
		case s.Reactive.SampleEvery < 0:
			return fmt.Errorf("reactive.sample_every must be non-negative, got %d", s.Reactive.SampleEvery)
		case s.Reactive.ThermostatTauFs < 0:
			return fmt.Errorf("reactive.thermostat_tau_fs must be non-negative, got %g", s.Reactive.ThermostatTauFs)
		}
	default:
		return fmt.Errorf("unknown engine %q (want %q or %q)", s.Engine, EngineLDC, EngineReactive)
	}
	for i, a := range s.Atoms {
		if atoms.SpeciesBySymbol(a.Species) == nil {
			return fmt.Errorf("atoms[%d]: unknown species %q", i, a.Species)
		}
	}
	return nil
}

// EstimatedCost models the job's remaining work in arbitrary units.
// For LDC jobs it is remaining MD steps × real-space grid points
// (GridN³), the dominant SCF/FFT cost driver at fixed tolerances; for
// reactive jobs it is remaining steps × atom count, the pair-field cost
// driver (a reactive step is orders of magnitude cheaper than an SCF
// step, so within a mixed queue reactive jobs naturally sort behind
// LDC jobs of comparable length). The lease pick (jobQueue) uses it
// to hand out the largest remaining tasks first within a priority
// level, and re-estimates on requeue so a mostly-finished trajectory
// (stepsDone close to Steps) no longer outranks fresh large jobs.
func (s *JobSpec) EstimatedCost(stepsDone int) float64 {
	remaining := s.Steps - stepsDone
	if remaining < 1 {
		remaining = 1 // a final checkpoint still has to be turned into a result
	}
	if s.EngineKind() == EngineReactive {
		return float64(remaining) * float64(len(s.Atoms))
	}
	n := float64(s.Config.GridN)
	return float64(remaining) * n * n * n
}

// BuildSystem materializes the atomic system of the spec.
func (s *JobSpec) BuildSystem() (*qmd.System, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sys := &atoms.System{Cell: geom.Cell{L: s.CellL}}
	for _, a := range s.Atoms {
		sys.Atoms = append(sys.Atoms, atoms.Atom{
			Species:  atoms.SpeciesBySymbol(a.Species),
			Position: geom.Vec3{X: a.Position[0], Y: a.Position[1], Z: a.Position[2]},
			Velocity: geom.Vec3{X: a.Velocity[0], Y: a.Velocity[1], Z: a.Velocity[2]},
		})
	}
	return sys, nil
}

// Status is the lifecycle state of a job.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusCompleted Status = "completed"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusCompleted || s == StatusFailed || s == StatusCancelled
}

// StateSeriesTail bounds the per-step EnergiesHa/TemperaturesK series a
// JobState carries (and GET /v1/jobs clones per request): only the most
// recent StateSeriesTail samples are kept. The full series lives in the
// SSE step stream and the trajectory checkpoint.
const StateSeriesTail = 256

// appendBounded appends v to s, sliding the window so at most
// StateSeriesTail samples are retained.
func appendBounded(s []float64, v float64) []float64 {
	s = append(s, v)
	if len(s) > StateSeriesTail {
		s = append(s[:0], s[len(s)-StateSeriesTail:]...)
	}
	return s
}

// boundedTail returns the last StateSeriesTail samples of s (a copy when
// trimmed, s itself otherwise).
func boundedTail(s []float64) []float64 {
	if len(s) <= StateSeriesTail {
		return s
	}
	return append([]float64(nil), s[len(s)-StateSeriesTail:]...)
}

// JobState is the mutable lifecycle record of a job — the body of
// GET /v1/jobs/{id} and the state.json artifact. Per-step energies and
// temperatures accumulate as the trajectory advances, bounded to the
// most recent StateSeriesTail samples.
type JobState struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Status   Status `json:"status"`
	Priority int    `json:"priority,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`

	Steps         int       `json:"steps"`
	StepsDone     int       `json:"steps_done"`
	SCFIterations int       `json:"scf_iterations,omitempty"`
	EnergiesHa    []float64 `json:"energies_ha,omitempty"`
	TemperaturesK []float64 `json:"temperatures_k,omitempty"`

	// Worker and LeaseEpoch are the lease record: the in-process slot or
	// node that holds (or last held) the job and the fencing epoch it
	// was granted under. The epoch is persisted so that fencing survives
	// daemon restarts; it only ever increases.
	Worker     string `json:"worker,omitempty"`
	LeaseEpoch int64  `json:"lease_epoch,omitempty"`

	Error string `json:"error,omitempty"`
}

// clone returns a deep copy safe to hand outside the manager lock.
func (st *JobState) clone() *JobState {
	out := *st
	out.EnergiesHa = append([]float64(nil), st.EnergiesHa...)
	out.TemperaturesK = append([]float64(nil), st.TemperaturesK...)
	return &out
}

// Event is one entry of a job's live event stream (the SSE feed):
// a status transition, a completed MD step, or the terminal record.
type Event struct {
	Type     string  `json:"type"` // "status" | "step" | "done"
	Status   Status  `json:"status,omitempty"`
	Step     int     `json:"step,omitempty"`
	EnergyHa float64 `json:"energy_ha,omitempty"`
	TempK    float64 `json:"temp_k,omitempty"`
	Error    string  `json:"error,omitempty"`
}
