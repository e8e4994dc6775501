package reactive

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/md"
	"ldcdft/internal/qio"
	"ldcdft/internal/units"
)

// ProductionSample is one time point of a hydrogen-production trajectory.
type ProductionSample struct {
	Step   int
	TimeFs float64
	Census Census
	TempK  float64
}

// ProductionResult summarizes a hydrogen-on-demand MD run.
type ProductionResult struct {
	TempK        float64
	Steps        int
	TimeFs       float64
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
	// after every N completed steps (0 = never), through the collective
	// I/O path with the group size CheckpointGroupSize (0 = 192).
	CheckpointEvery     int
	CheckpointPath      string
	CheckpointGroupSize int
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
// reactive field, sampling the species census — the surrogate for the
// paper's production QMD runs of §6.
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
	field := NewField()
	in := md.NewIntegrator(field, cfg.DtFs)
	in.Thermostat = &md.Berendsen{TargetK: cfg.TempK, TauAU: cfg.ThermostatTauFs * units.AtomicTimePerFs}
	startStep := 0
	if cfg.Resume != nil {
		startStep = cfg.Resume.Step
		if cfg.Resume.Force != nil {
			in.Prime(cfg.Resume.Energy, cfg.Resume.Force)
		}
	} else {
		rng := rand.New(rand.NewSource(cfg.Seed + 17))
		sys.InitVelocities(cfg.TempK, rng)
	}
	if startStep > cfg.Steps {
		return nil, fmt.Errorf("reactive: checkpoint at step %d is past the %d-step trajectory", startStep, cfg.Steps)
	}

	start := TakeCensus(sys)
	res := &ProductionResult{
		TempK:        cfg.TempK,
		Steps:        cfg.Steps,
		SurfaceAtoms: start.SurfaceMetal,
		PairCount:    sys.CountSpecies(atoms.Lithium),
	}
	res.Samples = append(res.Samples, ProductionSample{Step: startStep, Census: start, TempK: sys.Temperature()})
	if cfg.Resume != nil {
		// Carry the restored per-step record forward, truncated to the
		// restored step count (the record grows one entry per step).
		prefix := len(cfg.Resume.Energies)
		if prefix > startStep {
			prefix = startStep
		}
		res.EnergiesHa = append(res.EnergiesHa, cfg.Resume.Energies[:prefix]...)
		if len(cfg.Resume.Temperatures) >= prefix {
			res.TemperaturesK = append(res.TemperaturesK, cfg.Resume.Temperatures[:prefix]...)
		}
	}
	dtFs := in.DtAU * units.FsPerAtomicTime
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	writeCk := func(abs int) error {
		ck, err := qio.CheckpointFromSystem(sys)
		if err != nil {
			return err
		}
		ck.Step = abs
		ck.DtFs = dtFs
		ck.Energy = in.PotentialEnergy()
		ck.Force = append([]geom.Vec3(nil), in.Forces()...)
		ck.Energies = append([]float64(nil), res.EnergiesHa...)
		ck.Temperatures = append([]float64(nil), res.TemperaturesK...)
		_, err = qio.WriteCheckpoint(cfg.CheckpointPath, ck, qio.CheckpointWriteOptions{
			GroupSize: cfg.CheckpointGroupSize,
		})
		return err
	}
	errCancelled := errors.New("reactive: cancelled")
	lastStep := startStep
	err := in.Run(sys, cfg.Steps-startStep, func(step int) error {
		abs := startStep + step + 1
		lastStep = abs
		res.EnergiesHa = append(res.EnergiesHa, in.PotentialEnergy())
		res.TemperaturesK = append(res.TemperaturesK, sys.Temperature())
		if cfg.OnStep != nil {
			cfg.OnStep(abs, in.PotentialEnergy(), sys.Temperature())
		}
		if abs%cfg.SampleEvery == 0 {
			res.Samples = append(res.Samples, ProductionSample{
				Step:   abs,
				TimeFs: float64(abs) * dtFs,
				Census: TakeCensus(sys),
				TempK:  sys.Temperature(),
			})
		}
		if cfg.CheckpointEvery > 0 && cfg.CheckpointPath != "" && abs%cfg.CheckpointEvery == 0 {
			if err := writeCk(abs); err != nil {
				return err
			}
		}
		if ctx.Err() != nil {
			return errCancelled
		}
		return nil
	})
	if errors.Is(err, errCancelled) {
		// The observe hook runs after a completed step, so the system is
		// in a consistent post-step state — safe to checkpoint.
		if cfg.CheckpointPath != "" {
			if ckErr := writeCk(lastStep); ckErr != nil {
				return res, fmt.Errorf("reactive: final checkpoint after cancellation at step %d: %w", lastStep, ckErr)
			}
		}
		return res, fmt.Errorf("reactive: trajectory cancelled after step %d: %w", lastStep, context.Cause(ctx))
	}
	if err != nil {
		return nil, err
	}
	res.Final = TakeCensus(sys)
	res.TimeFs = float64(cfg.Steps) * dtFs
	produced := res.Final.H2 - start.H2
	if produced < 0 {
		produced = 0
	}
	// The start census is taken at startStep, so rates cover only the
	// segment this call actually integrated.
	seconds := float64(cfg.Steps-startStep) * dtFs * 1e-15
	if seconds > 0 && res.PairCount > 0 {
		res.RatePerPairPerSec = float64(produced) / seconds / float64(res.PairCount)
	}
	if seconds > 0 && res.SurfaceAtoms > 0 {
		res.RatePerSurfacePerSec = float64(produced) / seconds / float64(res.SurfaceAtoms)
	}
	return res, nil
}
