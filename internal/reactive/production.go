package reactive

import (
	"context"
	"fmt"
	"math/rand"

	"ldcdft/internal/atoms"
	"ldcdft/internal/md"
	"ldcdft/internal/qio"
	"ldcdft/internal/units"
)

// ProductionSample is one time point of a hydrogen-production trajectory.
type ProductionSample struct {
	TimeFs float64
	Census Census
}

// ProductionResult summarizes a hydrogen-on-demand MD run.
type ProductionResult struct {
	Steps        int // completed steps, counting resumed-over ones
	Samples      []ProductionSample
	Final        Census
	SurfaceAtoms int // N_surf at the start of the run
	PairCount    int // n in LinAln

	// EnergiesHa and TemperaturesK record every completed MD step —
	// including the checkpoint-restored prefix on resumed runs — the
	// same per-step trajectory record the QMD driver keeps. Index i is
	// step i+1.
	EnergiesHa    []float64
	TemperaturesK []float64

	// RatePerPairPerSec is the H₂ production rate per LiAl pair
	// (Fig. 9a reports 1.04e9 s⁻¹ per pair at 300 K).
	RatePerPairPerSec float64
	// RatePerSurfacePerSec is the rate normalized by N_surf (Fig. 9b).
	RatePerSurfacePerSec float64
}

// ProductionConfig controls a production run.
type ProductionConfig struct {
	TempK           float64
	Steps           int     // total trajectory length, including resumed-over steps
	SampleEvery     int     // census sampling stride; default 50
	DtFs            float64 // default: the paper's 0.242 fs
	ThermostatTauFs float64 // default 24 fs
	Seed            int64

	// CheckpointEvery writes a restartable checkpoint to CheckpointPath
	// after every N completed steps (0 = never), crash-safely through
	// qio.WriteCheckpoint.
	CheckpointEvery int
	CheckpointPath  string
	// Resume continues a trajectory from a previously read checkpoint:
	// sys must be the checkpoint's restored system; velocity
	// initialization is skipped and the integrator is re-primed with the
	// checkpointed forces. Production rates cover the resumed segment.
	Resume *qio.Checkpoint

	// Ctx, when non-nil, cancels the trajectory between MD steps. A
	// cancelled run writes a final checkpoint of the last completed step
	// (when CheckpointPath is set), then returns the partial result with
	// an error wrapping the context's cancellation cause.
	Ctx context.Context

	// OnStep, when non-nil, observes every completed MD step with the
	// absolute step index (counting resumed-over steps), the potential
	// energy (Hartree) and the instantaneous temperature (K) — the hook
	// the serving layer uses for progress reporting.
	OnStep func(step int, energyHa, tempK float64)
}

// RunProduction equilibrates velocities at TempK and integrates the
// reactive field under the md.Trajectory driver, sampling the species
// census — the surrogate for the paper's production QMD runs of §6. A
// cancelled or failed run returns what it completed with the error.
func RunProduction(sys *atoms.System, cfg ProductionConfig) (*ProductionResult, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("reactive: non-positive step count %d", cfg.Steps)
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 50
	}
	if cfg.ThermostatTauFs == 0 {
		cfg.ThermostatTauFs = 24
	}
	in := md.NewIntegrator(NewField(), cfg.DtFs)
	in.Thermostat = &md.Berendsen{TargetK: cfg.TempK, TauAU: cfg.ThermostatTauFs * units.AtomicTimePerFs}
	startStep := 0
	if cfg.Resume != nil {
		startStep = cfg.Resume.Step
	} else {
		rng := rand.New(rand.NewSource(cfg.Seed + 17))
		sys.InitVelocities(cfg.TempK, rng)
	}

	start := TakeCensus(sys)
	res := &ProductionResult{
		SurfaceAtoms: start.SurfaceMetal,
		PairCount:    sys.CountSpecies(atoms.Lithium),
	}
	res.Samples = append(res.Samples, ProductionSample{Census: start})
	dtFs := in.DtAU * units.FsPerAtomicTime
	traj := md.Trajectory{
		In: in, Steps: cfg.Steps, Resume: cfg.Resume, Ctx: cfg.Ctx, OnStep: cfg.OnStep,
		CheckpointEvery: cfg.CheckpointEvery, CheckpointPath: cfg.CheckpointPath,
		Observe: func(step int) {
			if step%cfg.SampleEvery == 0 {
				res.Samples = append(res.Samples, ProductionSample{
					TimeFs: float64(step) * dtFs,
					Census: TakeCensus(sys),
				})
			}
		},
		Write: func(ck *qio.Checkpoint) error {
			_, err := qio.WriteCheckpoint(cfg.CheckpointPath, ck, qio.CheckpointWriteOptions{})
			return err
		},
	}
	rec, err := traj.Run(sys)
	res.Steps, res.EnergiesHa, res.TemperaturesK = rec.Steps, rec.Energies, rec.Temperatures
	if err != nil {
		return res, err
	}
	res.Final = TakeCensus(sys)
	produced := res.Final.H2 - start.H2
	if produced < 0 {
		produced = 0
	}
	// The start census is taken at startStep, so rates cover only the
	// segment this call actually integrated.
	seconds := float64(res.Steps-startStep) * dtFs * 1e-15
	if seconds > 0 && res.PairCount > 0 {
		res.RatePerPairPerSec = float64(produced) / seconds / float64(res.PairCount)
	}
	if seconds > 0 && res.SurfaceAtoms > 0 {
		res.RatePerSurfacePerSec = float64(produced) / seconds / float64(res.SurfaceAtoms)
	}
	return res, nil
}
