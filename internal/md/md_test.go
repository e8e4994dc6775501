package md

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/units"
)

// harmonicPair binds every consecutive atom pair with a spring — an
// analytically tractable force field for integrator tests.
type harmonicPair struct {
	K, R0 float64
}

func (h *harmonicPair) Compute(sys *atoms.System) (float64, []geom.Vec3, error) {
	f := make([]geom.Vec3, len(sys.Atoms))
	var e float64
	for i := 0; i+1 < len(sys.Atoms); i += 2 {
		d := sys.Cell.MinImage(sys.Atoms[i].Position, sys.Atoms[i+1].Position)
		r := d.Norm()
		e += 0.5 * h.K * (r - h.R0) * (r - h.R0)
		dEdr := h.K * (r - h.R0)
		fv := d.Scale(-dEdr / r)
		f[i+1] = f[i+1].Add(fv)
		f[i] = f[i].Sub(fv)
	}
	return e, f, nil
}

func dimerSystem(sep float64) *atoms.System {
	return &atoms.System{
		Cell: geom.Cell{L: 30},
		Atoms: []atoms.Atom{
			{Species: atoms.Oxygen, Position: geom.Vec3{X: 15 - sep/2, Y: 15, Z: 15}},
			{Species: atoms.Oxygen, Position: geom.Vec3{X: 15 + sep/2, Y: 15, Z: 15}},
		},
	}
}

// totalEnergy is the kinetic plus potential energy of the last step.
func totalEnergy(in *Integrator, sys *atoms.System) float64 {
	e := in.PotentialEnergy()
	for _, a := range sys.Atoms {
		e += 0.5 * a.Species.Mass() * a.Velocity.Norm2()
	}
	return e
}

func TestVerletEnergyConservation(t *testing.T) {
	ff := &harmonicPair{K: 0.5, R0: 2.0}
	sys := dimerSystem(2.4) // stretched: oscillates
	in := NewIntegrator(ff, 0.1)
	if err := in.Step(sys); err != nil {
		t.Fatal(err)
	}
	e0 := totalEnergy(in, sys)
	for i := 0; i < 2000; i++ {
		if err := in.Step(sys); err != nil {
			t.Fatal(err)
		}
	}
	// Velocity Verlet is symplectic: the energy error is bounded and
	// O((ωΔt)²), not drifting; allow that bound.
	drift := math.Abs(totalEnergy(in, sys)-e0) / math.Abs(e0)
	if drift > 1e-3 {
		t.Fatalf("energy drift %g over 2000 steps", drift)
	}
}

func TestVerletOscillationPeriod(t *testing.T) {
	// Harmonic dimer: ω = √(k/μ) with reduced mass μ = m/2.
	k := 0.5
	ff := &harmonicPair{K: k, R0: 2.0}
	sys := dimerSystem(2.2)
	mu := atoms.Oxygen.Mass() / 2
	period := 2 * math.Pi / math.Sqrt(k/mu) // atomic time units
	dtFs := 0.5
	in := NewIntegrator(ff, dtFs)
	// Count sign changes of (r − r0) over several periods.
	var prev float64
	crossings := 0
	steps := int(4 * period / in.DtAU)
	for i := 0; i < steps; i++ {
		if err := in.Step(sys); err != nil {
			t.Fatal(err)
		}
		r := sys.Cell.Distance(sys.Atoms[0].Position, sys.Atoms[1].Position) - 2.0
		if i > 0 && r*prev < 0 {
			crossings++
		}
		prev = r
	}
	// 4 periods → 8 crossings.
	if crossings < 7 || crossings > 9 {
		t.Fatalf("crossings = %d over 4 periods, want ≈8", crossings)
	}
}

func TestMomentumConservation(t *testing.T) {
	ff := &harmonicPair{K: 0.3, R0: 2.0}
	sys := dimerSystem(2.5)
	rng := rand.New(rand.NewSource(1))
	sys.InitVelocities(300, rng)
	in := NewIntegrator(ff, 0.2)
	for i := 0; i < 500; i++ {
		if err := in.Step(sys); err != nil {
			t.Fatal(err)
		}
	}
	var p geom.Vec3
	for _, a := range sys.Atoms {
		p = p.Add(a.Velocity.Scale(a.Species.Mass()))
	}
	if p.Norm() > 1e-10 {
		t.Fatalf("net momentum %g after NVE run", p.Norm())
	}
}

func TestBerendsenThermostatReachesTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sys := &atoms.System{Cell: geom.Cell{L: 40}}
	for i := 0; i < 32; i++ {
		sys.Atoms = append(sys.Atoms, atoms.Atom{
			Species:  atoms.Oxygen,
			Position: geom.Vec3{X: rng.Float64() * 40, Y: rng.Float64() * 40, Z: rng.Float64() * 40},
		})
	}
	sys.InitVelocities(100, rng)
	in := NewIntegrator(&harmonicPair{K: 0, R0: 1}, 0.5) // free particles
	in.Thermostat = &Berendsen{TargetK: 600, TauAU: 20 * units.AtomicTimePerFs}
	for i := 0; i < 400; i++ {
		if err := in.Step(sys); err != nil {
			t.Fatal(err)
		}
	}
	temp := sys.Temperature()
	if temp < 500 || temp > 700 {
		t.Fatalf("temperature %g K, want ≈600", temp)
	}
}

func TestIntegratorErrors(t *testing.T) {
	in := &Integrator{DtAU: 1}
	if err := in.Step(dimerSystem(2)); !errors.Is(err, ErrNoForceField) {
		t.Fatalf("expected ErrNoForceField, got %v", err)
	}
}

type errField struct{}

func (errField) Compute(*atoms.System) (float64, []geom.Vec3, error) {
	return 0, nil, errors.New("boom")
}

func TestIntegratorPropagatesFieldError(t *testing.T) {
	in := NewIntegrator(errField{}, 0.5)
	if err := in.Step(dimerSystem(2)); err == nil {
		t.Fatal("expected propagated force-field error")
	}
}
