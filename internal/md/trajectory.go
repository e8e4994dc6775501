package md

import (
	"context"
	"fmt"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/qio"
	"ldcdft/internal/units"
)

// Trajectory is the one MD driver: it owns the step loop, the per-step
// record, the checkpoint cadence and common fields, cancellation and
// resume; an engine supplies In (force field, thermostat, time step) and
// the Observe and Write hooks (DESIGN.md "The trajectory driver").
type Trajectory struct {
	In *Integrator
	// Steps is the total length, counting the steps Resume already holds;
	// a checkpoint at or past it runs nothing and returns its record.
	Steps int
	// Resume continues a checkpoint's trajectory; Run takes its restored system.
	Resume *qio.Checkpoint

	// Ctx cancels the trajectory between steps — and inside one when the
	// force field has a SetContext(context.Context) method, which Run calls.
	Ctx context.Context
	// OnStep sees every completed step, numbered from 1 across resumes.
	OnStep func(step int, energyHa, tempK float64)
	// Observe is the engine's own per-step hook (SCF-iteration tally,
	// census sample); it runs before OnStep.
	Observe func(step int)

	// Every CheckpointEvery completed steps (0 = never), and when the run
	// is cancelled, Write stores ck at CheckpointPath (empty = neither). ck
	// has the configuration, step, time step, last forces and the record
	// (aliasing the live one: Write is done with it on return); Write adds
	// what only the engine knows, as of the last completed force evaluation.
	CheckpointEvery int
	CheckpointPath  string
	Write           func(ck *qio.Checkpoint) error
}

// Record is what a trajectory leaves behind, complete or not.
type Record struct {
	Steps        int       // completed steps, counting resumed-over ones
	Energies     []float64 // potential energy (Ha); index i is step i+1
	Temperatures []float64 // temperature (K)
	// System is the state after step Steps: the system handed to Run, or —
	// when a cancellation tore a step — a copy taken before that step.
	System *atoms.System
}

// snapshot is the restartable state of one completed step.
type snapshot struct {
	sys    *atoms.System
	energy float64
	forces []geom.Vec3
}

// Run advances sys in place to t.Steps. The record is never nil: a failed
// or cancelled trajectory returns what it completed with the error. A
// cancellation first checkpoints the last step this call completed, if any,
// and wraps the context's cause; one seen only after the last step is moot.
func (t *Trajectory) Run(sys *atoms.System) (*Record, error) {
	in, ctx := t.In, t.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ff, tearable := in.FF.(interface{ SetContext(context.Context) })
	if tearable {
		ff.SetContext(ctx)
	}
	rec := &Record{System: sys}
	if ck := t.Resume; ck != nil {
		if ck.Force != nil {
			in.Prime(ck.Energy, ck.Force)
		}
		rec.Steps = ck.Step
		rec.Energies = prefix(ck.Energies, ck.Step)
		rec.Temperatures = prefix(ck.Temperatures, ck.Step)
	}
	if t.CheckpointPath != "" {
		// What a killed run of this trajectory was in the middle of writing.
		qio.RemoveTempsOf(t.CheckpointPath)
		qio.RemoveTempsOf(t.CheckpointPath + ".delta")
	}
	// A step torn by a cancellation leaves sys half advanced, so the final
	// checkpoint needs a per-step copy — taken only when a step can be torn,
	// the context can be cancelled and there is a checkpoint to write. Else
	// last aliases the live state, which is whole whenever it is written.
	keep := tearable && ctx.Done() != nil && t.CheckpointPath != ""
	start, last := rec.Steps, snapshot{sys: sys}
	cancelled := func() (*Record, error) {
		rec.System = last.sys
		if rec.Steps > start && t.CheckpointPath != "" {
			if err := t.write(last, rec); err != nil {
				return rec, fmt.Errorf("md: final checkpoint after cancellation at step %d: %w", rec.Steps, err)
			}
		}
		return rec, fmt.Errorf("md: trajectory cancelled after step %d: %w", rec.Steps, context.Cause(ctx))
	}
	for rec.Steps < t.Steps {
		if ctx.Err() != nil {
			return cancelled()
		}
		if err := in.Step(sys); err != nil {
			if tearable && ctx.Err() != nil {
				return cancelled()
			}
			return rec, fmt.Errorf("md: step %d: %w", rec.Steps+1, err)
		}
		rec.Steps++
		e, tK := in.PotentialEnergy(), sys.Temperature()
		rec.Energies = append(rec.Energies, e)
		rec.Temperatures = append(rec.Temperatures, tK)
		if t.Observe != nil {
			t.Observe(rec.Steps)
		}
		if t.OnStep != nil {
			t.OnStep(rec.Steps, e, tK)
		}
		last = snapshot{sys, e, in.Forces()}
		if keep {
			last = snapshot{sys.Clone(), e, append([]geom.Vec3(nil), in.Forces()...)}
		}
		if t.CheckpointEvery > 0 && t.CheckpointPath != "" && rec.Steps%t.CheckpointEvery == 0 {
			if err := t.write(last, rec); err != nil {
				return rec, fmt.Errorf("md: checkpoint at step %d: %w", rec.Steps, err)
			}
		}
	}
	return rec, nil
}

// write hands the sink a checkpoint of s. The forces are copied: a force
// field may reuse its slice, and a sink may keep ck (as a delta base).
func (t *Trajectory) write(s snapshot, rec *Record) error {
	ck, err := qio.CheckpointFromSystem(s.sys)
	if err != nil {
		return err
	}
	ck.Step, ck.DtFs = rec.Steps, t.In.DtAU*units.FsPerAtomicTime
	ck.Energy, ck.Force = s.energy, append([]geom.Vec3(nil), s.forces...)
	ck.Energies, ck.Temperatures = rec.Energies, rec.Temperatures
	return t.Write(ck)
}

// prefix is the first n entries of a restored record (all of a shorter
// one), capped so that appending to it never writes into the checkpoint.
func prefix(s []float64, n int) []float64 {
	n = min(n, len(s))
	return s[:n:n]
}
