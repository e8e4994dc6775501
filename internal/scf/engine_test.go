package scf

import (
	"math"
	"math/cmplx"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/pw"
	"ldcdft/internal/xc"
)

func TestNewEngineErrors(t *testing.T) {
	sp := []*atoms.Species{atoms.Hydrogen}
	pos := []geom.Vec3{{X: 1, Y: 1, Z: 1}}
	if _, err := NewEngine(8, 10, 1.5, 1, sp, nil, 1); err == nil {
		t.Fatal("mismatched species/positions must fail")
	}
	if _, err := NewEngine(8, 10, 1.5, 0, sp, pos, 1); err == nil {
		t.Fatal("zero bands must fail")
	}
	if _, err := NewEngine(8, 4, 100, 1, sp, pos, 1); err == nil {
		t.Fatal("Nyquist-violating cutoff must fail")
	}
	// Too many bands for the basis.
	if _, err := NewEngine(8, 6, 0.3, 500, sp, pos, 1); err == nil {
		t.Fatal("bands > basis must fail")
	}
}

func TestEffectivePotentialFrom(t *testing.T) {
	sp := []*atoms.Species{atoms.Silicon}
	pos := []geom.Vec3{{X: 4, Y: 4, Z: 4}}
	eng, err := NewEngine(8, 12, 1.5, 4, sp, pos, 1)
	if err != nil {
		t.Fatal(err)
	}
	rho := eng.InitialDensity()
	eng.EffectivePotentialFrom(rho)
	// The installed potential must equal Vps + V_H + v_xc pointwise.
	vh := pw.HartreeFFT(eng.Basis, rho)
	want := make([]float64, len(rho))
	vloc := eng.Ham.LocalPotential()
	for i := range rho {
		want[i] = eng.Vps[i] + vh[i] + xc.Potential(rho[i])
		if math.Abs(vloc[i]-want[i]) > 1e-12 {
			t.Fatalf("potential mismatch at %d", i)
		}
	}
	// And HΨ must follow it: H applied to the wave functions equals a
	// Hamiltonian given that sum directly.
	ref := pw.NewHamiltonian(eng.Basis, eng.Ham.Projectors())
	ref.SetLocalPotential(want)
	got, exp := eng.Ham.ApplyAll(eng.Psi), ref.ApplyAll(eng.Psi)
	for i := range exp.Data {
		if cmplx.Abs(got.Data[i]-exp.Data[i]) > 1e-12 {
			t.Fatalf("HΨ mismatch at %d: the installed potential is not Vps + V_H + v_xc", i)
		}
	}
}

func TestSetEffectivePotentialPanics(t *testing.T) {
	sp := []*atoms.Species{atoms.Silicon}
	pos := []geom.Vec3{{X: 4, Y: 4, Z: 4}}
	eng, err := NewEngine(8, 12, 1.5, 4, sp, pos, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	eng.SetEffectivePotential(make([]float64, 7))
}

func TestAndersonMixerReset(t *testing.T) {
	m := &AndersonMixer{Alpha: 0.5}
	a := []float64{1}
	m.Mix([][]float64{a}, [][]float64{{2}})
	m.Mix([][]float64{{2}}, [][]float64{{3}})
	m.Reset()
	b := []float64{1}
	m.Mix([][]float64{b}, [][]float64{{2}})
	if math.Abs(a[0]-b[0]) > 1e-14 {
		t.Fatal("Reset should restore first-iteration behaviour")
	}
}

func TestBandKineticNonlocalPositive(t *testing.T) {
	sp := []*atoms.Species{atoms.Silicon}
	pos := []geom.Vec3{{X: 4, Y: 4, Z: 4}}
	eng, err := NewEngine(8, 12, 1.5, 4, sp, pos, 1)
	if err != nil {
		t.Fatal(err)
	}
	occ := []float64{2, 2, 0, 0}
	e := eng.BandKineticNonlocal(occ)
	if e < 0 {
		t.Fatalf("kinetic+nonlocal energy %g should be non-negative (positive-D projectors)", e)
	}
	// Zero occupation → zero energy.
	if eng.BandKineticNonlocal([]float64{0, 0, 0, 0}) != 0 {
		t.Fatal("empty occupations should give zero")
	}
}
