// Package atoms defines chemical species, atomic configurations, and
// linked-cell neighbour lists, plus builders for the systems studied in
// the paper: crystalline 3C-SiC (weak scaling, §5.1), amorphous CdSe
// (buffer convergence, §5.2), and LinAln nanoparticles immersed in water
// (strong scaling §5.1 and the hydrogen-on-demand application, §6).
package atoms

import (
	"fmt"
	"math"
	"math/rand"

	"ldcdft/internal/geom"
	"ldcdft/internal/units"
)

// Species describes a chemical element together with the parameters of
// its model pseudopotential (see DESIGN.md §5 for the functional forms).
type Species struct {
	Symbol  string
	Valence float64 // valence electrons contributed
	MassAMU float64 // atomic mass (amu)

	// Local pseudopotential v(G) = −4πZ·exp(−G²σ²/2)/(G²+κ²).
	PsSigma float64 // Gaussian core width (Bohr)
	PsKappa float64 // Thomas–Fermi-like screening (1/Bohr)

	// Nonlocal separable projectors: one channel per angular momentum
	// l = 0..len(PsNlE)−1 with strength PsNlE[l] (Hartree) and projector
	// width PsNlSigma (Bohr).
	PsNlE     []float64
	PsNlSigma float64
}

// Mass returns the mass in atomic units (electron masses).
func (s *Species) Mass() float64 { return s.MassAMU * units.ElectronMassPerAMU }

// Predefined species. The pseudopotential parameters are model values
// chosen for smoothness at the modest plane-wave cutoffs this laptop-
// scale build uses; they are not production pseudopotentials (see
// DESIGN.md substitution table).
var (
	Hydrogen = &Species{Symbol: "H", Valence: 1, MassAMU: 1.008,
		PsSigma: 0.45, PsKappa: 0.8, PsNlE: nil, PsNlSigma: 0.6}
	Oxygen = &Species{Symbol: "O", Valence: 6, MassAMU: 15.999,
		PsSigma: 0.50, PsKappa: 1.1, PsNlE: []float64{0.9}, PsNlSigma: 0.7}
	Lithium = &Species{Symbol: "Li", Valence: 1, MassAMU: 6.94,
		PsSigma: 0.80, PsKappa: 0.7, PsNlE: []float64{0.4}, PsNlSigma: 1.0}
	Aluminum = &Species{Symbol: "Al", Valence: 3, MassAMU: 26.982,
		PsSigma: 0.85, PsKappa: 0.8, PsNlE: []float64{0.6, 0.3}, PsNlSigma: 1.1}
	Silicon = &Species{Symbol: "Si", Valence: 4, MassAMU: 28.085,
		PsSigma: 0.80, PsKappa: 0.9, PsNlE: []float64{0.7, 0.35}, PsNlSigma: 1.0}
	Carbon = &Species{Symbol: "C", Valence: 4, MassAMU: 12.011,
		PsSigma: 0.55, PsKappa: 1.0, PsNlE: []float64{0.8}, PsNlSigma: 0.7}
	Cadmium = &Species{Symbol: "Cd", Valence: 2, MassAMU: 112.414,
		PsSigma: 0.95, PsKappa: 0.8, PsNlE: []float64{0.5}, PsNlSigma: 1.2}
	Selenium = &Species{Symbol: "Se", Valence: 6, MassAMU: 78.971,
		PsSigma: 0.75, PsKappa: 1.0, PsNlE: []float64{0.7}, PsNlSigma: 0.9}
)

// SpeciesBySymbol resolves a chemical symbol to its predefined Species
// (nil if unknown) — the inverse of the symbol tables that serialized
// snapshots and checkpoints store.
func SpeciesBySymbol(symbol string) *Species {
	for _, sp := range []*Species{
		Hydrogen, Oxygen, Lithium, Aluminum, Silicon, Carbon, Cadmium, Selenium,
	} {
		if sp.Symbol == symbol {
			return sp
		}
	}
	return nil
}

// Atom is one atom in a configuration.
type Atom struct {
	Species  *Species
	Position geom.Vec3 // Bohr
	Velocity geom.Vec3 // Bohr per atomic time unit
}

// System is a periodic atomic configuration.
type System struct {
	Cell  geom.Cell
	Atoms []Atom
}

// NumAtoms returns the number of atoms.
func (s *System) NumAtoms() int { return len(s.Atoms) }

// TotalValence returns the total number of valence electrons N — the
// constraint on the global chemical potential (Fig. 2 Eq. (c)).
func (s *System) TotalValence() float64 {
	var n float64
	for _, a := range s.Atoms {
		n += a.Species.Valence
	}
	return n
}

// CountSpecies returns the number of atoms of species sp.
func (s *System) CountSpecies(sp *Species) int {
	n := 0
	for _, a := range s.Atoms {
		if a.Species == sp {
			n++
		}
	}
	return n
}

// Clone deep-copies the system.
func (s *System) Clone() *System {
	out := &System{Cell: s.Cell, Atoms: make([]Atom, len(s.Atoms))}
	copy(out.Atoms, s.Atoms)
	return out
}

// WrapAll maps all positions into the primary cell.
func (s *System) WrapAll() {
	for i := range s.Atoms {
		s.Atoms[i].Position = s.Cell.Wrap(s.Atoms[i].Position)
	}
}

// Temperature returns the instantaneous kinetic temperature in Kelvin.
func (s *System) Temperature() float64 {
	if len(s.Atoms) == 0 {
		return 0
	}
	var ke float64
	for _, a := range s.Atoms {
		ke += 0.5 * a.Species.Mass() * a.Velocity.Norm2()
	}
	// KE = (3/2) N kB T
	return units.HartreeToKelvin(2 * ke / (3 * float64(len(s.Atoms))))
}

// InitVelocities draws Maxwell–Boltzmann velocities at temperature tK
// (Kelvin) and removes the centre-of-mass drift.
func (s *System) InitVelocities(tK float64, rng *rand.Rand) {
	kT := units.KelvinToHartree(tK)
	var pSum geom.Vec3
	var mSum float64
	for i := range s.Atoms {
		m := s.Atoms[i].Species.Mass()
		sd := math.Sqrt(kT / m)
		v := geom.Vec3{
			X: sd * rng.NormFloat64(),
			Y: sd * rng.NormFloat64(),
			Z: sd * rng.NormFloat64(),
		}
		s.Atoms[i].Velocity = v
		pSum = pSum.Add(v.Scale(m))
		mSum += m
	}
	drift := pSum.Scale(1 / mSum)
	for i := range s.Atoms {
		s.Atoms[i].Velocity = s.Atoms[i].Velocity.Sub(drift)
	}
}

// Validate checks that all positions are finite and the cell is sane.
func (s *System) Validate() error {
	if s.Cell.L <= 0 {
		return fmt.Errorf("atoms: non-positive cell length %g", s.Cell.L)
	}
	for i, a := range s.Atoms {
		if a.Species == nil {
			return fmt.Errorf("atoms: atom %d has nil species", i)
		}
		for _, c := range []float64{a.Position.X, a.Position.Y, a.Position.Z} {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("atoms: atom %d has non-finite position", i)
			}
		}
	}
	return nil
}
