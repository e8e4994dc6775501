package atoms

import (
	"math"
	"math/rand"
	"testing"

	"ldcdft/internal/geom"
)

func TestBuildSiC(t *testing.T) {
	s := BuildSiC(2)
	if s.NumAtoms() != 64 {
		t.Fatalf("2×2×2 SiC should have 64 atoms, got %d", s.NumAtoms())
	}
	if s.CountSpecies(Silicon) != 32 || s.CountSpecies(Carbon) != 32 {
		t.Fatal("SiC stoichiometry wrong")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Nearest-neighbour Si-C distance is a√3/4.
	want := SiCLatticeConstant * math.Sqrt(3) / 4
	nl := BuildNeighborList(s, want*1.1)
	for i, lst := range nl.Lists {
		found := false
		for _, nb := range lst {
			if math.Abs(nb.R-want) < 1e-9 && s.Atoms[nb.J].Species != s.Atoms[i].Species {
				found = true
			}
		}
		if !found {
			t.Fatalf("atom %d has no nearest unlike neighbour at %g", i, want)
		}
	}
}

func TestBuildLiAlInWater(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := BuildLiAlInWater(LiAlParticleSpec{PairCount: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	nLi := s.CountSpecies(Lithium)
	nAl := s.CountSpecies(Aluminum)
	nO := s.CountSpecies(Oxygen)
	nH := s.CountSpecies(Hydrogen)
	if nLi != 30 || nAl != 30 {
		t.Fatalf("particle stoichiometry: %d Li, %d Al", nLi, nAl)
	}
	if nH != 2*nO {
		t.Fatalf("water stoichiometry: %d H for %d O", nH, nO)
	}
	if nO < 50 {
		t.Fatalf("too little water: %d molecules", nO)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// No water oxygen should sit inside the particle gap.
	center := geom.Vec3{X: s.Cell.L / 2, Y: s.Cell.L / 2, Z: s.Cell.L / 2}
	var rmax float64
	for _, a := range s.Atoms {
		if a.Species == Lithium || a.Species == Aluminum {
			if r := s.Cell.MinImage(center, a.Position).Norm(); r > rmax {
				rmax = r
			}
		}
	}
	for _, a := range s.Atoms {
		if a.Species == Oxygen {
			if r := s.Cell.MinImage(center, a.Position).Norm(); r < rmax {
				t.Fatalf("water oxygen at r=%g inside particle radius %g", r, rmax)
			}
		}
	}
}

func TestWaterGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := &System{Cell: geom.Cell{L: 40}}
	addWater(s, geom.Vec3{X: 20, Y: 20, Z: 20}, rng)
	if len(s.Atoms) != 3 {
		t.Fatal("water should have 3 atoms")
	}
	o, h1, h2 := s.Atoms[0], s.Atoms[1], s.Atoms[2]
	r1 := o.Position.Sub(h1.Position).Norm()
	r2 := o.Position.Sub(h2.Position).Norm()
	wantOH := 0.9572 * 1.8897259886
	if math.Abs(r1-wantOH) > 1e-9 || math.Abs(r2-wantOH) > 1e-9 {
		t.Fatalf("O-H lengths %g, %g (want %g)", r1, r2, wantOH)
	}
	// H-O-H angle.
	v1 := h1.Position.Sub(o.Position)
	v2 := h2.Position.Sub(o.Position)
	cosA := v1.Dot(v2) / (v1.Norm() * v2.Norm())
	angle := math.Acos(cosA) * 180 / math.Pi
	if math.Abs(angle-104.52) > 1e-6 {
		t.Fatalf("H-O-H angle %g", angle)
	}
}

func TestInitVelocities(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := BuildSiC(3) // 216 atoms
	s.InitVelocities(600, rng)
	temp := s.Temperature()
	if temp < 400 || temp > 800 {
		t.Fatalf("temperature %g K far from 600 K target", temp)
	}
	// Centre-of-mass momentum must vanish.
	var p geom.Vec3
	for _, a := range s.Atoms {
		p = p.Add(a.Velocity.Scale(a.Species.Mass()))
	}
	if p.Norm() > 1e-9 {
		t.Fatalf("net momentum %g", p.Norm())
	}
}

func TestTotalValence(t *testing.T) {
	s := BuildSiC(1) // 4 Si (4 e⁻) + 4 C (4 e⁻) = 32
	if s.TotalValence() != 32 {
		t.Fatalf("SiC unit cell valence = %g, want 32", s.TotalValence())
	}
}

func TestNeighborListSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := &System{Cell: geom.Cell{L: 20}}
	for i := 0; i < 100; i++ {
		s.Atoms = append(s.Atoms, Atom{Species: Hydrogen, Position: geom.Vec3{
			X: rng.Float64() * 20, Y: rng.Float64() * 20, Z: rng.Float64() * 20}})
	}
	nl := BuildNeighborList(s, 4.0)
	// Symmetry: j in list(i) ⇔ i in list(j).
	for i, lst := range nl.Lists {
		for _, nb := range lst {
			found := false
			for _, back := range nl.Lists[nb.J] {
				if back.J == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric neighbour list: %d→%d", i, nb.J)
			}
		}
	}
}

func TestNeighborListMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := &System{Cell: geom.Cell{L: 30}}
	for i := 0; i < 150; i++ {
		s.Atoms = append(s.Atoms, Atom{Species: Oxygen, Position: geom.Vec3{
			X: rng.Float64() * 30, Y: rng.Float64() * 30, Z: rng.Float64() * 30}})
	}
	rc := 5.0
	nl := BuildNeighborList(s, rc) // linked-cell path (30/5 = 6 cells)
	for i := range s.Atoms {
		want := map[int]bool{}
		for j := range s.Atoms {
			if i != j && s.Cell.Distance(s.Atoms[i].Position, s.Atoms[j].Position) < rc {
				want[j] = true
			}
		}
		got := map[int]bool{}
		for _, nb := range nl.Lists[i] {
			got[nb.J] = true
		}
		if len(got) != len(want) {
			t.Fatalf("atom %d: %d neighbours, want %d", i, len(got), len(want))
		}
		for j := range want {
			if !got[j] {
				t.Fatalf("atom %d missing neighbour %d", i, j)
			}
		}
	}
}

func TestValidateCatchesBadSystems(t *testing.T) {
	s := &System{Cell: geom.Cell{L: -1}}
	if err := s.Validate(); err == nil {
		t.Fatal("negative cell should fail validation")
	}
	s = &System{Cell: geom.Cell{L: 5}, Atoms: []Atom{{Species: nil}}}
	if err := s.Validate(); err == nil {
		t.Fatal("nil species should fail validation")
	}
	s = &System{Cell: geom.Cell{L: 5}, Atoms: []Atom{{Species: Hydrogen,
		Position: geom.Vec3{X: math.NaN()}}}}
	if err := s.Validate(); err == nil {
		t.Fatal("NaN position should fail validation")
	}
}

func TestBuildLiAlInWaterErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := BuildLiAlInWater(LiAlParticleSpec{PairCount: 0}, rng); err == nil {
		t.Fatal("expected error for zero pairs")
	}
}
