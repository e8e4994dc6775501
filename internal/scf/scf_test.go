package scf

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
)

func TestFermiOccupation(t *testing.T) {
	if f := FermiOccupation(0, 0, 0.1); math.Abs(f-1) > 1e-12 {
		t.Fatalf("f(ε=μ) = %g, want 1", f)
	}
	if f := FermiOccupation(-10, 0, 0.1); math.Abs(f-2) > 1e-12 {
		t.Fatal("deep state should be fully occupied")
	}
	if f := FermiOccupation(10, 0, 0.1); f != 0 {
		t.Fatal("high state should be empty")
	}
	// kT = 0 limit.
	if FermiOccupation(-1, 0, 0) != 2 || FermiOccupation(1, 0, 0) != 0 || FermiOccupation(0, 0, 0) != 1 {
		t.Fatal("kT=0 step function wrong")
	}
}

func TestChemicalPotentialExact(t *testing.T) {
	eps := []float64{-1, -0.5, 0, 0.5, 1}
	for _, nelec := range []float64{1, 2, 4, 5, 7.5, 9} {
		mu, err := ChemicalPotential(eps, nelec, 0.05)
		if err != nil {
			t.Fatalf("nelec=%g: %v", nelec, err)
		}
		var n float64
		for _, e := range eps {
			n += FermiOccupation(e, mu, 0.05)
		}
		if math.Abs(n-nelec) > 1e-9 {
			t.Fatalf("nelec=%g: got %g at μ=%g", nelec, n, mu)
		}
	}
}

func TestChemicalPotentialMidGap(t *testing.T) {
	// Two levels, two electrons, tiny kT: μ must sit between them.
	eps := []float64{-1, 1}
	mu, err := ChemicalPotential(eps, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if mu < -0.9 || mu > 0.9 {
		t.Fatalf("mid-gap μ = %g", mu)
	}
}

func TestChemicalPotentialErrors(t *testing.T) {
	if _, err := ChemicalPotential(nil, 1, 0.1); err == nil {
		t.Fatal("empty eigenvalues should error")
	}
	if _, err := ChemicalPotential([]float64{0}, 5, 0.1); err == nil {
		t.Fatal("overfilled system should error")
	}
}

// Property: electron count is monotone in μ and the solver hits it.
func TestChemicalPotentialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		eps := make([]float64, n)
		for i := range eps {
			eps[i] = rng.NormFloat64() * 2
		}
		kT := 0.01 + rng.Float64()*0.2
		nelec := rng.Float64() * 2 * float64(n)
		mu, err := ChemicalPotential(eps, nelec, kT)
		if err != nil {
			return false
		}
		var count float64
		for _, e := range eps {
			count += FermiOccupation(e, mu, kT)
		}
		return math.Abs(count-nelec) < 1e-8*(1+nelec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearMixer(t *testing.T) {
	m := &LinearMixer{Alpha: 0.25}
	got := []float64{1, 2}
	m.Mix([][]float64{got}, [][]float64{{5, 6}})
	if math.Abs(got[0]-2) > 1e-14 || math.Abs(got[1]-3) > 1e-14 {
		t.Fatalf("linear mix got %v", got)
	}
}

func TestAndersonMixerFixedPoint(t *testing.T) {
	// Iterating x ← Mix(x, g(x)) for the linear map g(x) = a + 0.6x must
	// converge to the fixed point faster than plain linear mixing.
	g := func(x []float64) []float64 {
		out := make([]float64, len(x))
		for i := range x {
			out[i] = 1 + 0.6*x[i]
		}
		return out
	}
	iterate := func(m Mixer) int {
		x := []float64{0, 0, 0}
		for i := 1; i <= 200; i++ {
			out := g(x)
			var res float64
			for j := range x {
				res += math.Abs(out[j] - x[j])
			}
			if res < 1e-10 {
				return i
			}
			m.Mix([][]float64{x}, [][]float64{out})
		}
		return 200
	}
	nl := iterate(&LinearMixer{Alpha: 0.3})
	na := iterate(&AndersonMixer{Alpha: 0.3})
	if na >= nl {
		t.Fatalf("Anderson (%d iters) not faster than linear (%d)", na, nl)
	}
}

// testSystem returns a tiny 2-atom system cheap enough for full SCF in a
// unit test.
func testSystem() *atoms.System {
	return &atoms.System{
		Cell: geom.Cell{L: 8},
		Atoms: []atoms.Atom{
			{Species: atoms.Silicon, Position: geom.Vec3{X: 2, Y: 2, Z: 2}},
			{Species: atoms.Carbon, Position: geom.Vec3{X: 5.2, Y: 5.2, Z: 5.2}},
		},
	}
}

func testConfig() Config {
	return Config{GridN: 10, Ecut: 1.2, KT: 0.05, MaxIter: 80,
		MixAlpha: 0.3, Anderson: true, EigenIters: 4, Seed: 1}
}

func TestSCFConverges(t *testing.T) {
	res, err := Solve(testSystem(), testConfig())
	if err != nil {
		t.Fatalf("SCF failed after %d iterations: %v", res.Iterations, err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	// Electron count.
	var total float64
	for _, v := range res.Rho {
		total += v
	}
	total *= res.Engine.Basis.Grid.DV()
	if math.Abs(total-8) > 1e-6 {
		t.Fatalf("∫ρ = %g, want 8", total)
	}
	// Occupations in [0, 2] and consistent with eigenvalue order.
	for i, f := range res.Occupations {
		if f < -1e-12 || f > 2+1e-12 {
			t.Fatalf("occupation %d = %g out of range", i, f)
		}
		if i > 0 && res.Eigenvalues[i] < res.Eigenvalues[i-1]-1e-9 {
			t.Fatal("eigenvalues not sorted")
		}
	}
	// Energy parts all finite; total matches sum.
	if math.Abs(res.Parts.Total()-res.Energy) > 1e-12 {
		t.Fatal("energy parts inconsistent")
	}
	if math.IsNaN(res.Energy) || math.IsInf(res.Energy, 0) {
		t.Fatal("non-finite energy")
	}
	if len(res.Forces) != 2 {
		t.Fatal("forces missing")
	}
}

func TestSCFDeterministic(t *testing.T) {
	r1, err1 := Solve(testSystem(), testConfig())
	r2, err2 := Solve(testSystem(), testConfig())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Energy != r2.Energy {
		t.Fatalf("same seed gave different energies: %g vs %g", r1.Energy, r2.Energy)
	}
}

func TestSCFRejectsBadConfig(t *testing.T) {
	sys := testSystem()
	sys.Cell.L = -5
	if _, err := Solve(sys, testConfig()); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestInitialDensityNormalized(t *testing.T) {
	sys := testSystem()
	species := []*atoms.Species{sys.Atoms[0].Species, sys.Atoms[1].Species}
	pos := []geom.Vec3{sys.Atoms[0].Position, sys.Atoms[1].Position}
	eng, err := NewEngine(sys.Cell.L, 10, 1.2, 6, species, pos, 1)
	if err != nil {
		t.Fatal(err)
	}
	rho := eng.InitialDensity()
	var total float64
	for _, v := range rho {
		if v < 0 {
			t.Fatal("initial density negative")
		}
		total += v
	}
	total *= eng.Basis.Grid.DV()
	if math.Abs(total-8) > 1e-9 {
		t.Fatalf("initial density integrates to %g, want 8", total)
	}
}

// TestMixersAllocateNothing: a steady-state Mix writes into the caller's
// segments and the mixer's own history, and allocates nothing.
func TestMixersAllocateNothing(t *testing.T) {
	in := [][]float64{make([]float64, 64), make([]float64, 27)}
	out := [][]float64{make([]float64, 64), make([]float64, 27)}
	for k := range out {
		for i := range out[k] {
			out[k][i] = float64(i + k)
		}
	}
	for _, m := range []Mixer{&LinearMixer{Alpha: 0.3}, &AndersonMixer{Alpha: 0.3}} {
		m.Mix(in, out) // the first step sizes the Anderson history
		if n := testing.AllocsPerRun(20, func() { m.Mix(in, out) }); n != 0 {
			t.Errorf("%T: %v allocations per Mix", m, n)
		}
	}
}

// TestAndersonSegmentsMixAsOneVector: mixing a vector in segments gives
// the bits of mixing it whole — one θ over every segment, in place.
func TestAndersonSegmentsMixAsOneVector(t *testing.T) {
	g := func(x []float64) []float64 { // a coupled affine map
		out := make([]float64, len(x))
		for i := range x {
			out[i] = 1 + 0.6*x[i] - 0.2*x[(i+1)%len(x)]
		}
		return out
	}
	whole, parts := &AndersonMixer{Alpha: 0.3}, &AndersonMixer{Alpha: 0.3}
	x := []float64{0, 1, 2, 3, 4}
	y := slices.Clone(x)
	for it := 0; it < 6; it++ {
		gx, gy := g(x), g(y)
		whole.Mix([][]float64{x}, [][]float64{gx})
		parts.Mix([][]float64{y[:2], y[2:3], y[3:]}, [][]float64{gy[:2], gy[2:3], gy[3:]})
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("iteration %d, x[%d]: whole %v, segments %v", it, i, x[i], y[i])
			}
		}
	}
}
