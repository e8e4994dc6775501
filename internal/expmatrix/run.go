package expmatrix

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"ldcdft/internal/serve"
)

// CellReport is one row of the rendered matrix.
type CellReport struct {
	Key    string `json:"key"`
	Values Cell   `json:"values"`
	// Observables of a computed cell render as columns after the axes.
	Observables map[string]float64 `json:"observables,omitempty"`
	JobID       string             `json:"job_id,omitempty"`
	Status      string             `json:"status"` // "completed" | "failed" | "skipped-cached"→"completed"
	Error       string             `json:"error,omitempty"`
	Cached      bool               `json:"cached,omitempty"` // restored from the store, not run this campaign
	Checks      []ValidationResult `json:"checks,omitempty"`
	Pass        bool               `json:"pass"`
}

// Report is an experiment's evaluated matrix — the body of report.json
// and the source of the rendered markdown.
type Report struct {
	Experiment string       `json:"experiment"`
	Title      string       `json:"title,omitempty"`
	Scenario   string       `json:"scenario"`
	Axes       []Axis       `json:"axes"`
	Cells      []CellReport `json:"cells"`
	// Matrix holds the cross-cell checks (Arrhenius fit, buffer scan).
	Matrix []ValidationResult `json:"matrix,omitempty"`

	Ran     int  `json:"ran"`    // cells executed this campaign
	Cached  int  `json:"cached"` // cells restored from the store
	Failed  int  `json:"failed"` // cells whose job failed
	Pass    bool `json:"pass"`   // every cell completed and every check passed
	Elapsed int  `json:"elapsed_ms,omitempty"`
}

// JobClient is the harness's view of a qmdd daemon, standalone or
// coordinator: *serve.Client implements it, and the harness tests run a
// fake behind it.
type JobClient interface {
	Submit(ctx context.Context, spec serve.JobSpec) (*serve.JobState, error)
	Wait(ctx context.Context, id string) (*serve.JobState, error)
	Results(ctx context.Context, id string) (*serve.Results, error)
}

// submitBackoff paces admission retries after queue-full rejections.
const submitBackoff = 100 * time.Millisecond

// Runner executes experiments: expand the grid, skip cells the store
// already holds, compute the rest in process or run them as a qmdd job
// array, evaluate the validators, and persist the report.
type Runner struct {
	// Client runs job scenarios' cells; computed scenarios need none.
	Client JobClient
	Store  *Store
	// Logf, when non-nil, receives campaign progress lines.
	Logf func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Run executes one experiment campaign to a Report. Completed cells
// found in the store are reused (Cached); the remainder are computed
// one after the other (ctx is checked between cells) or run as a job
// array — all submissions first (admission-control rejections retried
// with backoff), then collection in submission order. A cell whose
// computation errors or whose job fails or is cancelled is marked
// failed but does not abort the campaign: the report carries the
// partial matrix and rerunning retries exactly the unfinished cells.
func (r *Runner) Run(ctx context.Context, spec *Spec) (*Report, error) {
	return r.campaign(ctx, spec, true)
}

// Render re-evaluates the experiment from the store alone — nothing
// runs. Cells without a stored record are reported as missing (and fail
// the matrix); Run is the way to fill them.
func (r *Runner) Render(spec *Spec) (*Report, error) {
	return r.campaign(context.Background(), spec, false)
}

func (r *Runner) campaign(ctx context.Context, spec *Spec, execute bool) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sc := scenarios[spec.Scenario]
	cells := ExpandGrid(spec.Axes)
	rep := &Report{
		Experiment: spec.Name,
		Title:      spec.Title,
		Scenario:   spec.Scenario,
		Axes:       spec.Axes,
		Cells:      make([]CellReport, len(cells)),
	}
	start := time.Now()

	// Phase 1: reuse completed cells; compute or submit the rest.
	var queue []int // submitted cells, in submission order
	records := make([]*CellRecord, len(cells))
	for i, cell := range cells {
		key := CellKey(spec.Axes, cell)
		cr := &rep.Cells[i]
		*cr = CellReport{Key: key, Values: cell, Status: string(serve.StatusCompleted)}
		rec, err := r.Store.GetCell(key)
		switch {
		case err != nil:
			return nil, err
		case rec != nil && (rec.Results != nil || rec.Observables != nil):
			records[i] = rec
			cr.JobID = rec.JobID
			cr.Cached = true
			rep.Cached++
		case !execute:
			cr.Status = "missing"
			rep.Failed++
		case sc.compute != nil:
			if ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
			obs, err := sc.compute(spec.Base, cell)
			for name, v := range obs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					err = fmt.Errorf("expmatrix: observable %q is not finite (%g)", name, v)
				}
			}
			if err != nil {
				cr.Status, cr.Error = string(serve.StatusFailed), err.Error()
				rep.Failed++
				r.logf("expmatrix: %s: cell %s failed: %v", spec.Name, key, err)
				continue
			}
			records[i] = &CellRecord{Key: key, Values: cell, Observables: obs, CompletedAt: time.Now().UTC()}
			if err := r.Store.PutCell(records[i]); err != nil {
				return nil, err
			}
			rep.Ran++
			r.logf("expmatrix: %s: cell %s computed", spec.Name, key)
		default:
			js, err := sc.job(spec.Base, cell)
			if err != nil {
				return nil, fmt.Errorf("expmatrix: cell %s: %w", key, err)
			}
			js.Name = spec.Name + "/" + key
			id, err := r.submit(ctx, js)
			if err != nil {
				return nil, fmt.Errorf("expmatrix: submit cell %s: %w", key, err)
			}
			cr.JobID = id
			queue = append(queue, i)
			r.logf("expmatrix: %s: cell %s submitted as %s", spec.Name, key, id)
		}
	}
	if rep.Cached > 0 {
		r.logf("expmatrix: %s: %d/%d cells already complete in store", spec.Name, rep.Cached, len(cells))
	}

	// Phase 2: collect in submission order.
	for _, i := range queue {
		cr := &rep.Cells[i]
		st, err := r.Client.Wait(ctx, cr.JobID)
		if err != nil {
			return nil, fmt.Errorf("expmatrix: wait for cell %s: %w", cr.Key, err)
		}
		cr.Status = string(st.Status)
		if st.Status != serve.StatusCompleted {
			cr.Error = st.Error
			rep.Failed++
			r.logf("expmatrix: %s: cell %s %s: %s", spec.Name, cr.Key, st.Status, st.Error)
			continue
		}
		res, err := r.Client.Results(ctx, cr.JobID)
		if err != nil {
			return nil, fmt.Errorf("expmatrix: results for cell %s: %w", cr.Key, err)
		}
		rec := &CellRecord{
			Key:         cr.Key,
			Values:      cells[i],
			JobID:       cr.JobID,
			Results:     res,
			CompletedAt: time.Now().UTC(),
		}
		if err := r.Store.PutCell(rec); err != nil {
			return nil, err
		}
		records[i] = rec
		rep.Ran++
		r.logf("expmatrix: %s: cell %s completed (%d steps)", spec.Name, cr.Key, res.Steps)
	}

	// Phase 3: evaluate. Cell checks per completed cell, matrix checks
	// across the grid.
	evaluate(spec, cells, records, rep)
	rep.Elapsed = int(time.Since(start).Milliseconds())
	if err := r.Store.WriteReport(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// submit admits one job, retrying queue-full rejections with backoff
// until ctx ends — an experiment grid routinely exceeds the queue
// capacity.
func (r *Runner) submit(ctx context.Context, js serve.JobSpec) (string, error) {
	for {
		st, err := r.Client.Submit(ctx, js)
		if err == nil {
			return st.ID, nil
		}
		if !errors.Is(err, serve.ErrQueueFull) {
			return "", err
		}
		select {
		case <-ctx.Done():
			return "", context.Cause(ctx)
		case <-time.After(submitBackoff):
		}
	}
}

// evaluate fills in the checks and the verdict from the cell records.
func evaluate(spec *Spec, cells []Cell, records []*CellRecord, rep *Report) {
	rep.Pass = rep.Failed == 0
	for i, rec := range records {
		if rec == nil {
			rep.Pass = false
			continue
		}
		rep.Cells[i].Observables = rec.Observables
		for _, v := range spec.Validators {
			var check ValidationResult
			if v.Kind == KindObservable {
				check = v.evaluateObservable(rec.Observables)
			} else {
				check = v.Evaluate(cells[i], rec.Results)
			}
			rep.Cells[i].Checks = append(rep.Cells[i].Checks, check)
		}
		rep.Cells[i].Pass = true
		for _, c := range rep.Cells[i].Checks {
			if !c.Pass {
				rep.Cells[i].Pass = false
				rep.Pass = false
			}
		}
	}
	for _, v := range spec.MatrixValidators {
		check := v.evaluateMatrix(cells, records)
		rep.Matrix = append(rep.Matrix, check)
		if !check.Pass {
			rep.Pass = false
		}
	}
}
