package xc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSignsAndZero(t *testing.T) {
	if EnergyDensity(0) != 0 || Potential(0) != 0 {
		t.Fatal("zero density must give zero")
	}
	if EnergyDensity(-1) != 0 || Potential(-1) != 0 {
		t.Fatal("negative density must give zero")
	}
	for _, rho := range []float64{1e-6, 0.01, 0.1, 1, 10} {
		if EnergyDensity(rho) >= 0 {
			t.Fatalf("ε_xc(%g) should be negative", rho)
		}
		if Potential(rho) >= 0 {
			t.Fatalf("v_xc(%g) should be negative", rho)
		}
	}
}

// Property: v_xc must equal d(ρ ε_xc)/dρ (finite-difference check).
func TestPotentialIsDerivative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rho := 1e-3 + rng.Float64()*5
		h := rho * 1e-6
		fd := ((rho+h)*EnergyDensity(rho+h) - (rho-h)*EnergyDensity(rho-h)) / (2 * h)
		return math.Abs(fd-Potential(rho)) < 1e-5*(1+math.Abs(fd))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneInDensity(t *testing.T) {
	// |v_xc| grows with density.
	prev := 0.0
	for _, rho := range []float64{0.01, 0.1, 1, 10} {
		v := -Potential(rho)
		if v <= prev {
			t.Fatalf("|v_xc| not increasing at ρ=%g", rho)
		}
		prev = v
	}
}
