package scf

import (
	"errors"
	"fmt"
	"math"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/pw"
	"ldcdft/internal/xc"
)

// Config controls a conventional (single-cell, O(N³)) SCF calculation.
type Config struct {
	GridN      int     // FFT grid points per axis
	Ecut       float64 // plane-wave cutoff (Hartree)
	KT         float64 // electronic temperature (Hartree); default 0.02
	MixAlpha   float64 // default 0.35
	Anderson   bool    // Anderson vs linear mixing
	MaxIter    int     // default 60
	EnergyTol  float64 // total-energy convergence (Hartree); default 1e-6
	DensityTol float64 // max |Δρ| convergence; default 1e-5
	EigenIters int     // at most this many eigensolver iterations per SCF cycle; default 3
	Seed       int64
}

func (c *Config) setDefaults() {
	if c.KT == 0 {
		c.KT = 0.02
	}
	if c.MixAlpha == 0 {
		c.MixAlpha = 0.35
	}
	if c.MaxIter == 0 {
		c.MaxIter = 60
	}
	if c.EnergyTol == 0 {
		c.EnergyTol = 1e-6
	}
	if c.DensityTol == 0 {
		c.DensityTol = 1e-5
	}
	if c.EigenIters == 0 {
		c.EigenIters = 3
	}
}

// EnergyParts itemizes the total energy.
type EnergyParts struct {
	BandKinNl float64 // Σ f(⟨T⟩+⟨V_nl⟩)
	LocalPs   float64 // ∫ V_ps ρ
	Hartree   float64 // ½∫ V_H ρ
	XC        float64 // ∫ ε_xc ρ
	IonIon    float64
}

// Total sums the parts.
func (p EnergyParts) Total() float64 {
	return p.BandKinNl + p.LocalPs + p.Hartree + p.XC + p.IonIon
}

// Result is the outcome of an SCF calculation.
type Result struct {
	Energy      float64
	Parts       EnergyParts
	Eigenvalues []float64
	Occupations []float64
	Mu          float64
	Rho         []float64
	Iterations  int
	SCFHistory  []float64 // total energy after each iteration
	Converged   bool
	Forces      []geom.Vec3
	Engine      *Engine
}

// ErrSCFDiverged is returned when the SCF loop exhausts MaxIter without
// meeting the convergence criteria.
var ErrSCFDiverged = errors.New("scf: self-consistency not reached")

// Bands returns the Kohn–Sham band count for the given valence charge,
// the one rule of both SCF drivers (Solve's cell, each LDC domain):
// enough for nelec/2 doubly-occupied states plus 20% + 4 partially
// occupied headroom for the Fermi smearing.
func Bands(nelec float64) int {
	return int(math.Ceil(nelec/2*1.2)) + 4
}

// Solve runs a conventional O(N³) plane-wave DFT calculation on the full
// cell: the baseline code path of §5.2 (crossover study) and §5.5
// (verification of the LDC-DFT results).
func Solve(sys *atoms.System, cfg Config) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	nelec := sys.TotalValence()
	cfg.setDefaults()
	species := make([]*atoms.Species, len(sys.Atoms))
	positions := make([]geom.Vec3, len(sys.Atoms))
	for i, a := range sys.Atoms {
		species[i] = a.Species
		positions[i] = sys.Cell.Wrap(a.Position)
	}
	eng, err := NewEngine(sys.Cell.L, cfg.GridN, cfg.Ecut, Bands(nelec), species, positions, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	eng.EigenIters = cfg.EigenIters

	var mixer Mixer
	if cfg.Anderson {
		mixer = &AndersonMixer{Alpha: cfg.MixAlpha}
	} else {
		mixer = &LinearMixer{Alpha: cfg.MixAlpha}
	}

	rho := eng.InitialDensity()
	res := &Result{Engine: eng}
	prevE := math.Inf(1)
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		eng.EffectivePotentialFrom(rho)
		eig, err := eng.Diagonalize()
		if err != nil {
			return nil, fmt.Errorf("scf: iteration %d: %w", iter, err)
		}
		mu, err := ChemicalPotential(eig.Eigenvalues, nelec, cfg.KT)
		if err != nil {
			return nil, fmt.Errorf("scf: iteration %d: %w", iter, err)
		}
		occ := Occupations(eig.Eigenvalues, mu, cfg.KT)
		rhoOut := eng.Density(occ)

		parts := assembleEnergy(eng, sys, rhoOut, occ)
		e := parts.Total()
		res.SCFHistory = append(res.SCFHistory, e)
		res.Iterations = iter
		res.Eigenvalues = eig.Eigenvalues
		res.Occupations = occ
		res.Mu = mu
		res.Parts = parts
		res.Energy = e

		var maxDrho float64
		for i := range rho {
			if d := math.Abs(rhoOut[i] - rho[i]); d > maxDrho {
				maxDrho = d
			}
		}
		if math.Abs(e-prevE) < cfg.EnergyTol && maxDrho < cfg.DensityTol {
			res.Converged = true
			res.Rho = rhoOut
			break
		}
		prevE = e
		mixer.Mix([][]float64{rho}, [][]float64{rhoOut})
	}
	if !res.Converged {
		res.Rho = rho
		return res, ErrSCFDiverged
	}
	res.Forces = ComputeForces(eng, sys, res.Rho, res.Occupations)
	return res, nil
}

// assembleEnergy itemizes the total energy for the current density and
// occupations.
func assembleEnergy(eng *Engine, sys *atoms.System, rho, occ []float64) EnergyParts {
	dv := eng.Basis.Grid.DV()
	var parts EnergyParts
	parts.BandKinNl = eng.BandKineticNonlocal(occ)
	vh := pw.HartreeFFT(eng.Basis, rho)
	for i, r := range rho {
		parts.LocalPs += eng.Vps[i] * r
		parts.Hartree += 0.5 * vh[i] * r
		parts.XC += xc.EnergyDensity(r) * r
	}
	parts.LocalPs *= dv
	parts.Hartree *= dv
	parts.XC *= dv
	eII, _ := pw.IonIon(sys.Cell, eng.Species, eng.Positions)
	parts.IonIon = eII
	return parts
}

// ComputeForces assembles the total Hellmann–Feynman forces: local
// pseudopotential + nonlocal projector + ion-ion contributions.
func ComputeForces(eng *Engine, sys *atoms.System, rho, occ []float64) []geom.Vec3 {
	fLoc := pw.LocalForces(eng.Basis, rho, eng.Species, eng.Positions)
	fNl := pw.NonlocalForces(eng.Basis, eng.Ham.Projectors(), eng.Psi, occ, len(eng.Species))
	_, fII := pw.IonIon(sys.Cell, eng.Species, eng.Positions)
	out := make([]geom.Vec3, len(fLoc))
	for i := range out {
		out[i] = fLoc[i].Add(fNl[i]).Add(fII[i])
	}
	return out
}
