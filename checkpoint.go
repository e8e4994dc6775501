package qmd

import (
	"context"
	"errors"
	"fmt"
	"os"

	"ldcdft/internal/cache"
	"ldcdft/internal/grid"
	"ldcdft/internal/md"
	"ldcdft/internal/qio"
)

// QMDOptions carries the trajectory options beyond the physics
// configuration — the checkpoint/restart policy, cooperative
// cancellation, and per-step observation. The zero value disables all
// three.
type QMDOptions struct {
	// CheckpointEvery writes a checkpoint after every N completed MD
	// steps (0 = never). Combined with CheckpointPath.
	CheckpointEvery int
	// CheckpointPath is the checkpoint file; each write replaces it
	// atomically (temp file + fsync + rename).
	CheckpointPath string
	// DeltaCheckpoints switches to incremental checkpointing: the first
	// write (and periodic refreshes) store a full base at CheckpointPath,
	// and every other write stores only the state that changed since the
	// base — a small delta file at CheckpointPath+".delta" — so frequent
	// checkpointing of a large system costs O(changed state) per step.
	// A write whose delta would be half the base size or more writes a
	// fresh base instead, and no delta. ResumeQMD transparently applies a
	// pending delta whether or not this flag is set.
	DeltaCheckpoints bool

	// Ctx, when non-nil, cancels the trajectory cooperatively: between
	// MD steps and between SCF iterations inside a step. A cancelled
	// trajectory returns the partial QMDResult together with an error
	// wrapping the context's cancellation cause, and — when
	// CheckpointPath is set and at least one step has completed — first
	// writes a final checkpoint of the last *completed* step, so the
	// trajectory resumes bit-for-bit. A cancellation that lands inside
	// an SCF solve never checkpoints the torn mid-step state.
	Ctx context.Context

	// OnStep, when non-nil, is invoked after every completed MD step
	// with the 1-based absolute step index, the potential energy (Ha)
	// and the instantaneous temperature (K) — the hook job-serving
	// layers use for live progress streams. It runs synchronously on
	// the trajectory goroutine.
	OnStep func(step int, energyHa, tempK float64)

	// Cache, when non-nil, is the SCF warm-start cache consulted before
	// every force evaluation and populated after every solve (see
	// DFTForceField.Cache). Safe to share across concurrent trajectories.
	Cache *cache.Cache
}

// RunQMDOpts is RunQMD with trajectory options: every CheckpointEvery
// steps the full restartable state — configuration, last forces, the
// converged SCF density, and the accumulated per-step record — is
// written crash-safely through internal/qio.
func RunQMDOpts(sys *System, cfg LDCConfig, steps int, dtFs float64, opts QMDOptions) (*QMDResult, error) {
	ff := &DFTForceField{Cfg: cfg, Cache: opts.Cache}
	return runLDC(sys.Clone(), ff, steps, dtFs, nil, opts, &checkpointWriter{opts: opts, domains: cfg.DomainsPerAxis})
}

// ResumeQMD restores a trajectory from a checkpoint and continues it to
// steps total MD steps (if the checkpoint is already at or past steps,
// no further steps run and the recorded trajectory is returned). The
// integrator is re-primed with the checkpointed forces and the SCF is
// warm-started from the checkpointed density and per-domain ρα histories
// (see DFTForceField), so a resumed trajectory reproduces the
// uninterrupted one bit-for-bit. A checkpoint whose density grid or
// history shape (domain count, local grid edge) differs from cfg's is an
// error. A dtFs of 0 adopts the checkpoint's time step.
func ResumeQMD(path string, cfg LDCConfig, steps int, dtFs float64, opts QMDOptions) (*QMDResult, error) {
	base, err := qio.LoadCheckpointBase(path)
	if err != nil {
		return nil, err
	}
	// A pending delta next to the base holds the newest completed step —
	// apply it whether or not this run writes deltas, so a restart never
	// silently rewinds past work a delta checkpoint recorded.
	ck, err := qio.ApplyDeltaIfPresent(base, path+".delta")
	if err != nil {
		return nil, err
	}
	work, err := ck.RestoreSystem()
	if err != nil {
		return nil, err
	}
	if dtFs == 0 {
		dtFs = ck.DtFs
	}
	ff := &DFTForceField{Cfg: cfg, Cache: opts.Cache}
	if ck.GridN > 0 {
		if cfg.GridN != ck.GridN {
			return nil, fmt.Errorf("qmd: resume: checkpoint density grid %d³ does not match configured grid %d³",
				ck.GridN, cfg.GridN)
		}
		ff.SetDensity(&grid.Field{Grid: grid.New(ck.GridN, work.Cell.L), Data: ck.Rho})
	}
	if len(ck.Hist) > 0 {
		domains, edge := historyShape(cfg)
		if len(ck.Hist) != domains || ck.HistN != edge {
			return nil, fmt.Errorf("qmd: resume: checkpoint histories of %d domains × %d³ points do not match configured %d domains × %d³",
				len(ck.Hist), ck.HistN, domains, edge)
		}
		ff.prevHist = ck.Hist
	}
	cw := &checkpointWriter{opts: opts, domains: cfg.DomainsPerAxis}
	if opts.DeltaCheckpoints {
		// Seed the writer with the on-disk base so the continued run keeps
		// appending deltas to it instead of rewriting a full checkpoint.
		cw.base = base
		if info, err := os.Stat(path); err == nil {
			cw.baseBytes = info.Size()
		}
	}
	return runLDC(work, ff, steps, dtFs, ck, opts, cw)
}

// historyShape is the shape of the ρα histories cfg's decomposition
// carries: the domain count and every domain's local grid edge.
func historyShape(cfg LDCConfig) (domains, edge int) {
	n := cfg.DomainsPerAxis
	return n * n * n, cfg.GridN/max(n, 1) + 2*cfg.BufN
}

// runLDC is the LDC-DFT engine under the md.Trajectory driver: ff supplies
// the forces, the per-step hook tallies SCF iterations, and the sink adds
// the tally, the converged density and the ρα histories before cw stores
// the checkpoint. The tally is every solve ff ran — on a fresh run the
// integrator's priming evaluation too; a resume restores the forces and
// runs none — on top of the checkpoint's.
func runLDC(work *System, ff *DFTForceField, steps int, dtFs float64, resume *qio.Checkpoint,
	opts QMDOptions, cw *checkpointWriter) (*QMDResult, error) {
	out := &QMDResult{}
	base := 0
	if resume != nil {
		base = resume.SCFIterations
		out.SCFIterations = base
	}
	traj := md.Trajectory{
		In: md.NewIntegrator(ff, dtFs), Steps: steps, Resume: resume,
		Ctx: opts.Ctx, OnStep: opts.OnStep,
		CheckpointEvery: opts.CheckpointEvery, CheckpointPath: opts.CheckpointPath,
		Observe: func(int) { out.SCFIterations = base + ff.SCFIters },
		Write: func(ck *qio.Checkpoint) error {
			ck.SCFIterations = out.SCFIterations
			if rho := ff.Density(); rho != nil {
				ck.GridN, ck.Rho = rho.Grid.N, rho.Data
			}
			if ff.prevHist != nil {
				_, ck.HistN = historyShape(ff.Cfg)
				ck.Hist = ff.prevHist
			}
			return cw.write(ck)
		},
	}
	rec, err := traj.Run(work)
	out.Steps, out.Energies, out.Temperatures, out.FinalSystem = rec.Steps, rec.Energies, rec.Temperatures, rec.System
	return out, err
}

// checkpointWriter writes trajectory checkpoints: independent full files
// by default, or — with QMDOptions.DeltaCheckpoints — a full base at
// CheckpointPath plus a rotating delta at CheckpointPath+".delta". Both
// files are written crash-safely, and every on-disk state reachable by a
// crash resumes consistently: old base + new delta, or new base + stale
// delta (ignored via its base-CRC binding).
type checkpointWriter struct {
	opts      QMDOptions
	domains   int // DomainsPerAxis: the per-domain atom sections of a full write
	base      *qio.DeltaBase
	baseBytes int64
}

// write stores ck as a delta against the base, or as a full checkpoint.
func (w *checkpointWriter) write(ck *qio.Checkpoint) error {
	wopts := qio.CheckpointWriteOptions{DomainsPerAxis: w.domains}
	if !w.opts.DeltaCheckpoints {
		_, err := qio.WriteCheckpoint(w.opts.CheckpointPath, ck, wopts)
		return err
	}
	if w.base != nil {
		// A delta of half the base or more is never written: the state
		// folds into a fresh base instead, so write cost stays
		// proportional to recent change, not drift accumulated since the
		// first step, and the step pays for one durable write, not two.
		_, err := qio.WriteCheckpointDeltaBelow(w.opts.CheckpointPath+".delta", ck, w.base, (w.baseBytes+1)/2)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, qio.ErrDeltaTooLarge), errors.Is(err, qio.ErrDeltaIncompatible):
			// Too large (above), or the system shape changed: new base.
		default:
			return err
		}
	}
	base, n, err := qio.WriteCheckpointBase(w.opts.CheckpointPath, ck, wopts)
	if err != nil {
		return err
	}
	w.base, w.baseBytes = base, n
	// Any leftover delta is now stale (bound to the previous base's CRC)
	// and would be ignored on resume; remove it so the on-disk state is
	// unambiguous.
	os.Remove(w.opts.CheckpointPath + ".delta")
	return nil
}
