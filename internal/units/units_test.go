package units

import (
	"math"
	"testing"
)

func TestRoundTrips(t *testing.T) {
	for _, v := range []float64{0.001, 1, 27.3, 1000} {
		if got := HartreeToEV(v * HartreePerEV); math.Abs(got-v) > 1e-12*v {
			t.Fatalf("eV roundtrip %g -> %g", v, got)
		}
		if got := HartreeToKelvin(KelvinToHartree(v)); math.Abs(got-v) > 1e-9*v {
			t.Fatalf("K roundtrip %g -> %g", v, got)
		}
	}
	if math.Abs(BohrPerAngstrom*AngstromPerBohr-1) > 1e-14 {
		t.Fatal("length conversion inverse")
	}
	if math.Abs(FsPerAtomicTime*AtomicTimePerFs-1) > 1e-14 {
		t.Fatal("time conversion inverse")
	}
}

func TestKnownValues(t *testing.T) {
	// 1 Hartree = 27.2114 eV.
	if math.Abs(HartreeToEV(1)-27.211386245988) > 1e-9 {
		t.Fatal("Hartree in eV")
	}
	// Room temperature ≈ 0.00095 Ha.
	if kT := KelvinToHartree(300); kT < 9e-4 || kT > 1e-3 {
		t.Fatalf("300 K = %g Ha", kT)
	}
	// The paper's time step: 0.242 fs ≈ 10 atomic time units.
	if dt := PaperTimeStepFs * AtomicTimePerFs; dt < 9.9 || dt > 10.1 {
		t.Fatalf("paper time step %g a.u.", dt)
	}
	// Proton/electron mass ratio.
	if math.Abs(ElectronMassPerAMU-1822.888486209) > 1e-6 {
		t.Fatal("amu conversion")
	}
}
