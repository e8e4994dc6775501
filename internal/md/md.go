// Package md implements the molecular-dynamics layer of QMD: the
// velocity-Verlet integrator, thermostats, and Trajectory, the one driver
// that runs any force provider — the LDC-DFT engine for quantum MD, or the
// reactive surrogate field for the large hydrogen-on-demand runs — through
// the step loop, record, checkpoints, cancellation and resume (§6; the
// paper's production runs use a unit time step of 0.242 fs).
package md

import (
	"errors"
	"fmt"
	"math"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/perf"
	"ldcdft/internal/units"
)

// Phase timers for the MD loop. Force evaluations have serial boundaries
// within Step, so the exclusive spans capture the Global FLOP delta of
// whatever force provider runs underneath (the full LDC-DFT engine in
// QMD mode).
var (
	phForce     = perf.GetPhase("md/force")
	phIntegrate = perf.GetPhase("md/integrate")
)

// ForceField computes the potential energy and per-atom forces of a
// configuration. Implementations: reactive.Field (surrogate reactive
// force field) and qmd.ForceField (LDC-DFT engine; see package qmd).
type ForceField interface {
	Compute(sys *atoms.System) (energy float64, forces []geom.Vec3, err error)
}

// Thermostat rescales velocities toward a target temperature.
type Thermostat interface {
	Apply(sys *atoms.System, dt float64)
}

// Berendsen is the Berendsen weak-coupling thermostat: velocities are
// scaled by √(1 + dt/τ·(T0/T − 1)) each step.
type Berendsen struct {
	TargetK float64 // target temperature (Kelvin)
	TauAU   float64 // coupling time constant (atomic time units)
}

// Apply implements Thermostat.
func (b *Berendsen) Apply(sys *atoms.System, dt float64) {
	t := sys.Temperature()
	if t <= 0 {
		return
	}
	lam := 1 + dt/b.TauAU*(b.TargetK/t-1)
	if lam < 0.25 {
		lam = 0.25 // bound the rescale against startup shocks
	}
	if lam > 4 {
		lam = 4
	}
	s := math.Sqrt(lam)
	for i := range sys.Atoms {
		sys.Atoms[i].Velocity = sys.Atoms[i].Velocity.Scale(s)
	}
}

// Integrator advances a system with velocity Verlet.
type Integrator struct {
	FF         ForceField
	DtAU       float64    // time step (atomic time units)
	Thermostat Thermostat // optional

	forces []geom.Vec3
	energy float64
	primed bool
}

// ErrNoForceField is returned by Step when the integrator lacks a force
// field.
var ErrNoForceField = errors.New("md: integrator has no force field")

// NewIntegrator builds an integrator with the paper's default time step
// (0.242 fs) if dtFs is zero.
func NewIntegrator(ff ForceField, dtFs float64) *Integrator {
	if dtFs == 0 {
		dtFs = units.PaperTimeStepFs
	}
	return &Integrator{FF: ff, DtAU: dtFs * units.AtomicTimePerFs}
}

// PotentialEnergy returns the energy of the last force evaluation.
func (in *Integrator) PotentialEnergy() float64 { return in.energy }

// Forces returns the last computed forces (nil before the first step).
func (in *Integrator) Forces() []geom.Vec3 { return in.forces }

// Prime installs a force evaluation as if a Step had just completed —
// the checkpoint-restart hook. A resumed integrator must not recompute
// the initial forces: re-priming with the checkpointed forces makes the
// first resumed step start from bitwise the same state as the
// uninterrupted trajectory.
func (in *Integrator) Prime(energy float64, forces []geom.Vec3) {
	in.energy = energy
	in.forces = forces
	in.primed = true
}

// Step advances the system by one velocity-Verlet step:
// v += F/m·dt/2; r += v·dt; recompute F; v += F/m·dt/2.
func (in *Integrator) Step(sys *atoms.System) error {
	if in.FF == nil {
		return ErrNoForceField
	}
	dt := in.DtAU
	if !in.primed {
		spF := phForce.StartExclusive()
		e, f, err := in.FF.Compute(sys)
		spF.Stop()
		if err != nil {
			return fmt.Errorf("md: initial force evaluation: %w", err)
		}
		in.energy, in.forces = e, f
		in.primed = true
	}
	if len(in.forces) != len(sys.Atoms) {
		return fmt.Errorf("md: force count %d != atom count %d", len(in.forces), len(sys.Atoms))
	}
	spI := phIntegrate.Start()
	for i := range sys.Atoms {
		a := &sys.Atoms[i]
		inv := dt / (2 * a.Species.Mass())
		a.Velocity = a.Velocity.Add(in.forces[i].Scale(inv))
		a.Position = a.Position.Add(a.Velocity.Scale(dt))
	}
	sys.WrapAll()
	spI.StopFlops(12 * int64(len(sys.Atoms)))
	spF := phForce.StartExclusive()
	e, f, err := in.FF.Compute(sys)
	spF.Stop()
	if err != nil {
		return fmt.Errorf("md: force evaluation: %w", err)
	}
	in.energy, in.forces = e, f
	spI = phIntegrate.Start()
	for i := range sys.Atoms {
		a := &sys.Atoms[i]
		inv := dt / (2 * a.Species.Mass())
		a.Velocity = a.Velocity.Add(in.forces[i].Scale(inv))
	}
	if in.Thermostat != nil {
		in.Thermostat.Apply(sys, dt)
	}
	spI.StopFlops(6 * int64(len(sys.Atoms)))
	return nil
}
