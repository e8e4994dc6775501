package analysis

import (
	"math"
	"math/rand"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
)

func TestRDFIdealGasIsFlat(t *testing.T) {
	// Uniform random gas → g(r) ≈ 1 at all r.
	rng := rand.New(rand.NewSource(1))
	sys := &atoms.System{Cell: geom.Cell{L: 30}}
	for i := 0; i < 800; i++ {
		sys.Atoms = append(sys.Atoms, atoms.Atom{Species: atoms.Oxygen,
			Position: geom.Vec3{X: rng.Float64() * 30, Y: rng.Float64() * 30, Z: rng.Float64() * 30}})
	}
	r := NewRDF(10, 40)
	for frame := 0; frame < 3; frame++ {
		if err := r.Accumulate(sys, atoms.Oxygen, atoms.Oxygen); err != nil {
			t.Fatal(err)
		}
	}
	// Skip the first bins (shot noise); the rest must hover near 1.
	for i := 8; i < len(r.Bins); i++ {
		if r.Bins[i] < 0.6 || r.Bins[i] > 1.4 {
			t.Fatalf("ideal-gas g(r) bin %d = %g", i, r.Bins[i])
		}
	}
}

func TestRDFCrystalPeak(t *testing.T) {
	// SiC crystal: the Si-C first peak sits at a√3/4.
	sys := atoms.BuildSiC(3)
	r := NewRDF(8, 160)
	if err := r.Accumulate(sys, atoms.Silicon, atoms.Carbon); err != nil {
		t.Fatal(err)
	}
	pos, height := r.FirstPeak(1)
	want := atoms.SiCLatticeConstant * math.Sqrt(3) / 4
	if math.Abs(pos-want) > 0.1 {
		t.Fatalf("first Si-C peak at %g, want %g", pos, want)
	}
	if height < 5 {
		t.Fatalf("crystal peak height %g too small", height)
	}
}

func TestRDFErrors(t *testing.T) {
	sys := atoms.BuildSiC(1)
	r := NewRDF(20, 10) // rmax > L/2
	if err := r.Accumulate(sys, atoms.Silicon, atoms.Carbon); err == nil {
		t.Fatal("oversized rmax must fail")
	}
	r2 := NewRDF(3, 10)
	if err := r2.Accumulate(sys, atoms.Oxygen, atoms.Carbon); err == nil {
		t.Fatal("absent species must fail")
	}
}
