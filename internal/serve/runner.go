package serve

import (
	"context"
	"os"

	qmd "ldcdft"
	"ldcdft/internal/cache"
	"ldcdft/internal/qio"
	"ldcdft/internal/reactive"
)

// RunReport is what a Runner hands back for a finished (or interrupted)
// trajectory: the accumulated per-step record, including steps restored
// from a checkpoint on resume, plus — for completed runs — the durable
// Results payload. It is also the wire payload of a worker node's
// completion call, hence the JSON tags.
type RunReport struct {
	Steps         int       `json:"steps"`
	SCFIterations int       `json:"scf_iterations,omitempty"`
	EnergiesHa    []float64 `json:"energies_ha,omitempty"`
	TemperaturesK []float64 `json:"temperatures_k,omitempty"`

	// Results carries the terminal observable record of a completed
	// run; nil for interrupted or failed trajectories. The manager
	// persists it as results.json next to the job state.
	Results *Results `json:"results,omitempty"`
}

// Runner executes one job trajectory. The manager depends only on this
// interface, so scheduling, admission, cancellation, and recovery are
// testable with fake runners that never touch the SCF engine.
//
// ckPath is the job's checkpoint file: a Runner must checkpoint there
// (so the daemon can resume after a crash), resume from it when it
// already exists, and — on cancellation — leave a final checkpoint of
// the last completed step before returning ctx's cause.
type Runner interface {
	Run(ctx context.Context, spec JobSpec, ckPath string,
		onStep func(step int, energyHa, tempK float64)) (RunReport, error)
}

// QMDRunner runs jobs through the two engines under the md.Trajectory
// driver: LDC-DFT QMD (qmd.RunQMDOpts / qmd.ResumeQMD) for LDC jobs, the
// reactive surrogate-field MD (reactive.RunProduction) for reactive jobs.
type QMDRunner struct {
	// Cache, when non-nil, is the shared SCF warm-start cache handed to
	// every LDC trajectory (see qmd.QMDOptions.Cache).
	Cache *cache.Cache
}

// Run implements Runner, with one discipline for both engines: checkpoint
// at the spec'd cadence (default every step), resume from ckPath when it
// exists (a crash, a requeue, a lease taken over), else build from the spec.
func (r QMDRunner) Run(ctx context.Context, spec JobSpec, ckPath string,
	onStep func(step int, energyHa, tempK float64)) (RunReport, error) {
	every := spec.CheckpointCadence()
	var sys *qmd.System // stays nil to resume from ckPath
	var err error
	if _, statErr := os.Stat(ckPath); statErr != nil {
		if sys, err = spec.BuildSystem(); err != nil {
			return RunReport{}, err
		}
	}
	if spec.EngineKind() == EngineReactive {
		return runReactive(ctx, spec, sys, ckPath, every, onStep)
	}
	opts := qmd.QMDOptions{
		CheckpointPath:  ckPath,
		CheckpointEvery: every,
		Ctx:             ctx,
		OnStep:          onStep,
		Cache:           r.Cache,
	}
	var res *qmd.QMDResult
	if sys == nil {
		res, err = qmd.ResumeQMD(ckPath, spec.Config, spec.Steps, spec.DtFs, opts)
	} else {
		res, err = qmd.RunQMDOpts(sys, spec.Config, spec.Steps, spec.DtFs, opts)
	}
	if res == nil {
		return RunReport{}, err
	}
	return report(EngineLDC, res.Steps, res.SCFIterations, res.Energies, res.Temperatures, res.FinalSystem, err == nil), err
}

// runReactive is the reactive half of Run; a nil sys resumes from ckPath.
func runReactive(ctx context.Context, spec JobSpec, sys *qmd.System, ckPath string, every int,
	onStep func(step int, energyHa, tempK float64)) (RunReport, error) {
	cfg := reactive.ProductionConfig{
		TempK:           spec.Reactive.TempK,
		Steps:           spec.Steps,
		SampleEvery:     spec.Reactive.SampleEvery,
		DtFs:            spec.DtFs,
		ThermostatTauFs: spec.Reactive.ThermostatTauFs,
		Seed:            spec.Reactive.Seed,
		CheckpointEvery: every,
		CheckpointPath:  ckPath,
		Ctx:             ctx,
		OnStep:          onStep,
	}
	if sys == nil {
		ck, err := qio.ReadCheckpoint(ckPath)
		if err != nil {
			return RunReport{}, err
		}
		if sys, err = ck.RestoreSystem(); err != nil {
			return RunReport{}, err
		}
		cfg.Resume = ck
	}
	res, err := reactive.RunProduction(sys, cfg)
	if res == nil {
		return RunReport{}, err
	}
	rep := report(EngineReactive, res.Steps, 0, res.EnergiesHa, res.TemperaturesK, sys, err == nil)
	if out := rep.Results; out != nil {
		final := res.Final
		out.Census = &final
		out.RatePerPairPerSec = res.RatePerPairPerSec
		out.RatePerSurfacePerSec = res.RatePerSurfacePerSec
		out.SurfaceAtoms = res.SurfaceAtoms
		out.PairCount = res.PairCount
		out.PHStart = res.Samples[0].Census.PHProxy()
		out.PHEnd = final.PHProxy()
	}
	return rep, err
}

// report is the RunReport of a trajectory's record: the steps it completed
// and, for one that ran to the end (done), the Results every engine fills.
func report(engine string, steps, scfIters int, energies, temps []float64, final *qmd.System, done bool) RunReport {
	rep := RunReport{Steps: steps, SCFIterations: scfIters, EnergiesHa: energies, TemperaturesK: temps}
	if done {
		rep.Results = &Results{
			Engine:        engine,
			Steps:         steps,
			SCFIterations: scfIters,
			EnergiesHa:    boundedTail(energies),
			TemperaturesK: boundedTail(temps),
			FinalSystem:   SnapshotSystem(final),
		}
		if n := len(energies); n > 0 {
			rep.Results.FinalEnergyHa = energies[n-1]
		}
	}
	return rep
}
