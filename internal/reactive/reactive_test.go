package reactive

import (
	"math"
	"math/rand"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/md"
	"ldcdft/internal/units"
)

// waterBox places nw water molecules on a grid in a cube of side L.
func waterBox(nw int, L float64, rng *rand.Rand) *atoms.System {
	sys := &atoms.System{Cell: geom.Cell{L: L}}
	n := int(math.Ceil(math.Cbrt(float64(nw))))
	placed := 0
	for ix := 0; ix < n && placed < nw; ix++ {
		for iy := 0; iy < n && placed < nw; iy++ {
			for iz := 0; iz < n && placed < nw; iz++ {
				p := geom.Vec3{
					X: (float64(ix) + 0.5) * L / float64(n),
					Y: (float64(iy) + 0.5) * L / float64(n),
					Z: (float64(iz) + 0.5) * L / float64(n),
				}
				addTestWater(sys, p, rng)
				placed++
			}
		}
	}
	return sys
}

func addTestWater(sys *atoms.System, p geom.Vec3, rng *rand.Rand) {
	rOH := 0.97 * units.BohrPerAngstrom
	half := 104.5 / 2 * math.Pi / 180
	// random azimuthal rotation about z only (adequate for tests)
	phi := rng.Float64() * 2 * math.Pi
	c, s := math.Cos(phi), math.Sin(phi)
	h1 := geom.Vec3{X: rOH * math.Sin(half) * c, Y: rOH * math.Sin(half) * s, Z: rOH * math.Cos(half)}
	h2 := geom.Vec3{X: -rOH * math.Sin(half) * c, Y: -rOH * math.Sin(half) * s, Z: rOH * math.Cos(half)}
	sys.Atoms = append(sys.Atoms,
		atoms.Atom{Species: atoms.Oxygen, Position: p},
		atoms.Atom{Species: atoms.Hydrogen, Position: p.Add(h1)},
		atoms.Atom{Species: atoms.Hydrogen, Position: p.Add(h2)},
	)
}

func TestForcesMatchFiniteDifference(t *testing.T) {
	// The decisive test for the bond-order force implementation: analytic
	// forces must equal −∂E/∂r across a configuration that activates
	// every term (water + metal + stray H pair).
	rng := rand.New(rand.NewSource(1))
	sys := &atoms.System{Cell: geom.Cell{L: 22}}
	addTestWater(sys, geom.Vec3{X: 8, Y: 8, Z: 8}, rng)
	addTestWater(sys, geom.Vec3{X: 12, Y: 9, Z: 8.5}, rng)
	sys.Atoms = append(sys.Atoms,
		atoms.Atom{Species: atoms.Aluminum, Position: geom.Vec3{X: 9.5, Y: 8.2, Z: 10.5}},
		atoms.Atom{Species: atoms.Lithium, Position: geom.Vec3{X: 11, Y: 11, Z: 10}},
		atoms.Atom{Species: atoms.Hydrogen, Position: geom.Vec3{X: 14, Y: 14, Z: 14}},
		atoms.Atom{Species: atoms.Hydrogen, Position: geom.Vec3{X: 14, Y: 14, Z: 15.6}},
	)
	f := NewField()
	_, forces, err := f.Compute(sys)
	if err != nil {
		t.Fatal(err)
	}
	const h = 2e-5
	for ai := range sys.Atoms {
		for dim := 0; dim < 3; dim++ {
			move := func(delta float64) float64 {
				s2 := sys.Clone()
				switch dim {
				case 0:
					s2.Atoms[ai].Position.X += delta
				case 1:
					s2.Atoms[ai].Position.Y += delta
				default:
					s2.Atoms[ai].Position.Z += delta
				}
				e, _, err := f.Compute(s2)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			fd := -(move(h) - move(-h)) / (2 * h)
			var an float64
			switch dim {
			case 0:
				an = forces[ai].X
			case 1:
				an = forces[ai].Y
			default:
				an = forces[ai].Z
			}
			if math.Abs(an-fd) > 1e-5*(1+math.Abs(fd)) {
				t.Fatalf("atom %d (%s) dim %d: analytic %g vs FD %g",
					ai, sys.Atoms[ai].Species.Symbol, dim, an, fd)
			}
		}
	}
}

func TestWaterIsBoundAndStable(t *testing.T) {
	// An isolated water molecule must be a local minimum: bound relative
	// to dissociation products and stable over NVE dynamics at 300 K.
	rng := rand.New(rand.NewSource(2))
	sys := &atoms.System{Cell: geom.Cell{L: 25}}
	addTestWater(sys, geom.Vec3{X: 12.5, Y: 12.5, Z: 12.5}, rng)
	f := NewField()
	eBound, _, err := f.Compute(sys)
	if err != nil {
		t.Fatal(err)
	}
	if eBound >= 0 {
		t.Fatalf("water not bound: E = %g", eBound)
	}
	// Dynamics: molecule stays intact.
	sys.InitVelocities(300, rng)
	in := md.NewIntegrator(f, 0.2)
	for i := 0; i < 500; i++ {
		if err := in.Step(sys); err != nil {
			t.Fatal(err)
		}
	}
	c := TakeCensus(sys)
	if c.Water != 1 {
		t.Fatalf("water did not survive 500 steps at 300 K: %+v", c)
	}
}

func TestH2MoleculeIsDeeplyBound(t *testing.T) {
	// Two free hydrogens at the H₂ bond length: strongly bound (≈4.75 eV).
	sys := &atoms.System{Cell: geom.Cell{L: 20}}
	r := 0.74 * units.BohrPerAngstrom
	sys.Atoms = append(sys.Atoms,
		atoms.Atom{Species: atoms.Hydrogen, Position: geom.Vec3{X: 10 - r/2, Y: 10, Z: 10}},
		atoms.Atom{Species: atoms.Hydrogen, Position: geom.Vec3{X: 10 + r/2, Y: 10, Z: 10}},
	)
	f := NewField()
	e, _, err := f.Compute(sys)
	if err != nil {
		t.Fatal(err)
	}
	eEV := units.HartreeToEV(e)
	if eEV > -3.5 {
		t.Fatalf("H₂ binding only %g eV", eEV)
	}
}

func TestMetalCoordinationWeakensWater(t *testing.T) {
	// Ingredient 1 directly: the O–H dissociation cost must drop when the
	// oxygen is coordinated to aluminum.
	f := NewField()
	cost := func(withMetal bool) float64 {
		rng := rand.New(rand.NewSource(3))
		sys := &atoms.System{Cell: geom.Cell{L: 25}}
		addTestWater(sys, geom.Vec3{X: 12, Y: 12, Z: 12}, rng)
		if withMetal {
			// Three Al atoms coordinating the oxygen.
			for k, dp := range []geom.Vec3{{X: -3.3, Y: 0, Z: -0.8}, {X: 1.8, Y: -2.9, Z: -0.9}, {X: 1.6, Y: 3.0, Z: -0.9}} {
				_ = k
				sys.Atoms = append(sys.Atoms, atoms.Atom{
					Species:  atoms.Aluminum,
					Position: geom.Vec3{X: 12, Y: 12, Z: 12}.Add(dp),
				})
			}
		}
		eIntact, _, err := f.Compute(sys)
		if err != nil {
			t.Fatal(err)
		}
		// Pull one H far away.
		s2 := sys.Clone()
		s2.Atoms[1].Position = geom.Vec3{X: 24, Y: 24, Z: 24}
		eBroken, _, err := f.Compute(s2)
		if err != nil {
			t.Fatal(err)
		}
		return eBroken - eIntact
	}
	free := cost(false)
	atMetal := cost(true)
	if atMetal >= free {
		t.Fatalf("metal did not weaken O–H: cost %g eV (free) vs %g eV (at metal)",
			units.HartreeToEV(free), units.HartreeToEV(atMetal))
	}
}

func TestCensusClassification(t *testing.T) {
	sys := &atoms.System{Cell: geom.Cell{L: 30}}
	rng := rand.New(rand.NewSource(4))
	// One intact water.
	addTestWater(sys, geom.Vec3{X: 5, Y: 5, Z: 5}, rng)
	// One hydroxide (O with one H).
	rOH := 0.97 * units.BohrPerAngstrom
	sys.Atoms = append(sys.Atoms,
		atoms.Atom{Species: atoms.Oxygen, Position: geom.Vec3{X: 12, Y: 12, Z: 12}},
		atoms.Atom{Species: atoms.Hydrogen, Position: geom.Vec3{X: 12 + rOH, Y: 12, Z: 12}},
	)
	// One H2.
	rHH := 0.74 * units.BohrPerAngstrom
	sys.Atoms = append(sys.Atoms,
		atoms.Atom{Species: atoms.Hydrogen, Position: geom.Vec3{X: 20, Y: 20, Z: 20}},
		atoms.Atom{Species: atoms.Hydrogen, Position: geom.Vec3{X: 20 + rHH, Y: 20, Z: 20}},
	)
	// One free H.
	sys.Atoms = append(sys.Atoms,
		atoms.Atom{Species: atoms.Hydrogen, Position: geom.Vec3{X: 26, Y: 5, Z: 26}})
	c := TakeCensus(sys)
	if c.Water != 1 || c.Hydroxide != 1 || c.H2 != 1 || c.FreeH != 1 {
		t.Fatalf("census %+v", c)
	}
	if c.PHProxy() <= 0 {
		t.Fatal("hydroxide excess should read basic")
	}
}

func TestArrheniusFitRecoversKnownEa(t *testing.T) {
	// Synthesize rates with Ea = 0.068 eV (the paper's value) and check
	// the fit recovers it.
	ea := 0.068 * units.HartreePerEV
	a := 2.5e12
	temps := []float64{300, 600, 1500}
	rates := make([]float64, len(temps))
	for i, tk := range temps {
		rates[i] = a * math.Exp(-ea/units.KelvinToHartree(tk))
	}
	gotEa, gotA := ArrheniusFit(temps, rates)
	if math.Abs(gotEa-ea) > 1e-9 {
		t.Fatalf("Ea = %g Ha, want %g", gotEa, ea)
	}
	if math.Abs(gotA-a)/a > 1e-6 {
		t.Fatalf("prefactor %g, want %g", gotA, a)
	}
	// Degenerate input.
	if e, _ := ArrheniusFit([]float64{300}, []float64{1}); e != 0 {
		t.Fatal("single point should not fit")
	}
}

func TestArrheniusFitDegenerateInputs(t *testing.T) {
	// Zero and negative rates carry no ln(rate): with fewer than two
	// valid samples the fit must report (0, 0), not NaN or a bogus slope.
	cases := []struct {
		name  string
		temps []float64
		rates []float64
	}{
		{"empty", nil, nil},
		{"all-zero-rates", []float64{300, 600, 1500}, []float64{0, 0, 0}},
		{"negative-rates", []float64{300, 600}, []float64{-1, -2}},
		{"one-valid-rate", []float64{300, 600, 1500}, []float64{0, 0, 4e11}},
		{"non-positive-temps", []float64{0, -300}, []float64{1e11, 2e11}},
	}
	for _, tc := range cases {
		ea, a := ArrheniusFit(tc.temps, tc.rates)
		if ea != 0 || a != 0 {
			t.Errorf("%s: ArrheniusFit = (%g, %g), want (0, 0)", tc.name, ea, a)
		}
	}
	// Invalid samples must be skipped, not poison the remaining fit.
	ea := 0.05 * units.HartreePerEV
	valid := func(tk float64) float64 { return 1e12 * math.Exp(-ea/units.KelvinToHartree(tk)) }
	gotEa, _ := ArrheniusFit(
		[]float64{300, -1, 600, 1500},
		[]float64{valid(300), 1e12, valid(600), valid(1500)},
	)
	if math.Abs(gotEa-ea) > 1e-9 {
		t.Fatalf("fit over mixed samples: Ea = %g Ha, want %g", gotEa, ea)
	}
}

func TestProductionRunProducesHydrogenAtHighT(t *testing.T) {
	if testing.Short() {
		t.Skip("production MD is expensive")
	}
	rng := rand.New(rand.NewSource(5))
	sys, err := atoms.BuildLiAlInWater(atoms.LiAlParticleSpec{PairCount: 15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := TakeCensus(sys), censusFromList(sys); got != want {
		t.Fatalf("initial frame: census %+v, from a materialised list %+v", got, want)
	}
	res, err := RunProduction(sys, ProductionConfig{
		TempK: 1500, Steps: 3000, SampleEvery: 500, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The final frame holds H₂, hydrides and free H: every branch of the
	// census must agree with the list-built reference there too.
	if want := censusFromList(sys); res.Final != want || res.Final.H2 == 0 {
		t.Fatalf("final frame: census %+v, from a materialised list %+v", res.Final, want)
	}
	// At 1500 K the surface chemistry must have started: dissociated
	// water (hydroxide/metal-H/H2) present.
	react := res.Final.H2 + res.Final.MetalH + res.Final.Hydroxide + res.Final.FreeH
	if react == 0 {
		t.Fatalf("no reactive events at 1500 K: %+v", res.Final)
	}
	if res.SurfaceAtoms == 0 {
		t.Fatal("surface atom count is zero")
	}
	t.Logf("final census: %+v, rate/pair = %.3g /s", res.Final, res.RatePerPairPerSec)
}

func TestPureWaterDoesNotReact(t *testing.T) {
	if testing.Short() {
		t.Skip("MD is expensive")
	}
	rng := rand.New(rand.NewSource(6))
	sys := waterBox(27, 19.0, rng)
	res, err := RunProduction(sys, ProductionConfig{
		TempK: 400, Steps: 1500, SampleEvery: 500, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.H2 != 0 {
		t.Fatalf("pure water produced H₂: %+v", res.Final)
	}
	if res.Final.Water < 24 {
		t.Fatalf("water disintegrated without metal: %+v", res.Final)
	}
}
