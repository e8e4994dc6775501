// Package reactive implements the surrogate reactive force field for the
// hydrogen-on-demand application (§6): LinAln nanoparticles immersed in
// water, with metal-catalyzed water dissociation and H₂ formation.
//
// A production run in the paper computes these reactions with LDC-DFT;
// reproducing 16,661 atoms × 21,140 QMD steps quantum-mechanically is a
// hardware-gated experiment (see DESIGN.md). The substitute implemented
// here is a bond-order-style classical field whose three reactive
// ingredients mirror the paper's reported mechanism:
//
//  1. metal coordination of a water oxygen weakens its O–H bonds (the
//     Lewis acid-base pairs at the particle surface, §6);
//  2. hydrogens freed from oxygen gain H–H attraction (H₂ formation)
//     and transiently bind the metal (hydride intermediates);
//  3. Li–O and Al–O attraction drives oxidation and Li dissolution
//     (the corrosive basic solution raising the pH, §6).
//
// The activation energy that emerges from these couplings is calibrated
// against the paper's Arrhenius fit (Ea ≈ 0.068 eV, Fig. 9a).
package reactive

import (
	"ldcdft/internal/atoms"
	"ldcdft/internal/units"
)

// Morse holds one pair interaction: well depth D (Hartree), inverse width
// a (1/Bohr), equilibrium distance R0 (Bohr), and cutoff Rc (Bohr).
type Morse struct {
	D, A, R0, Rc float64
}

// pairKey identifies an unordered species pair.
type pairKey struct{ a, b string }

func keyOf(s1, s2 *atoms.Species) pairKey {
	if s1.Symbol <= s2.Symbol {
		return pairKey{s1.Symbol, s2.Symbol}
	}
	return pairKey{s2.Symbol, s1.Symbol}
}

// Params collects every interaction parameter of the field.
type Params struct {
	Pairs map[pairKey]Morse

	// Core repulsion A·e^{−r/Rho} between all pairs (prevents overlap
	// when bond-order scaling suppresses a Morse wall).
	CoreA   float64
	CoreRho float64
	CoreRc  float64

	// Coordination cutoffs (Bohr): fc switches from 1 to 0 between
	// R1 and R2.
	OHCoordR1, OHCoordR2 float64 // oxygen neighbours of H (u)
	HHCoordR1, HHCoordR2 float64 // hydrogen neighbours of H (v)
	MOCoordR1, MOCoordR2 float64 // metal neighbours of O (m)
	MHCoordR1, MHCoordR2 float64 // metal neighbours of H (w)

	// COH is the maximal fractional O–H well reduction from metal
	// coordination of the oxygen (ingredient 1: the Lewis acid pulling
	// on the oxygen).
	COH float64
	// CWH is the maximal additional O–H reduction from metal
	// coordination of the HYDROGEN — the proton-transfer reaction
	// coordinate: an H swinging toward the surface trades its O–H bond
	// for a hydride bond.
	CWH float64

	// Cutoff is the neighbour-list range (Bohr).
	Cutoff float64
}

func ev(x float64) float64  { return x * units.HartreePerEV }
func ang(x float64) float64 { return x * units.BohrPerAngstrom }
func invAng(x float64) float64 {
	return x / units.BohrPerAngstrom
}

// DefaultParams returns the calibrated parameter set. Well depths are in
// eV and lengths in Å in the construction below (converted to atomic
// units); values are model parameters tuned so the field reproduces the
// qualitative energetics of the LiAl-water system: strong Al–O/Li–O
// oxidation, metal-weakened O–H, exothermic H₂ formation.
func DefaultParams() Params {
	p := Params{Pairs: map[pairKey]Morse{}}
	add := func(s1, s2 *atoms.Species, dEV, aInvAng, r0Ang, rcAng float64) {
		p.Pairs[keyOf(s1, s2)] = Morse{
			D: ev(dEV), A: invAng(aInvAng), R0: ang(r0Ang), Rc: ang(rcAng),
		}
	}
	// Water. The O–H and H–H wells are kept narrow (large a, short
	// cutoff) so that the valence-saturation coordination counts span
	// the entire attractive range — attraction outside the counted range
	// would allow unphysical many-body clustering.
	add(atoms.Oxygen, atoms.Hydrogen, 4.80, 2.8, 0.97, 2.2)
	add(atoms.Hydrogen, atoms.Hydrogen, 4.75, 2.2, 0.74, 2.8)
	add(atoms.Oxygen, atoms.Oxygen, 0.15, 1.4, 2.90, 5.5)
	// Metal-water.
	add(atoms.Aluminum, atoms.Oxygen, 4.80, 1.7, 1.80, 4.5)
	add(atoms.Lithium, atoms.Oxygen, 3.00, 1.5, 1.90, 4.5)
	add(atoms.Aluminum, atoms.Hydrogen, 1.10, 1.1, 1.70, 4.5)
	add(atoms.Lithium, atoms.Hydrogen, 0.70, 1.0, 1.80, 4.5)
	// Metal cohesion.
	add(atoms.Aluminum, atoms.Aluminum, 1.45, 1.2, 2.75, 5.5)
	add(atoms.Lithium, atoms.Aluminum, 1.15, 1.2, 2.80, 5.5)
	add(atoms.Lithium, atoms.Lithium, 0.85, 1.2, 2.95, 5.5)

	p.CoreA = ev(30)
	p.CoreRho = ang(0.15)
	p.CoreRc = ang(1.5)

	p.OHCoordR1, p.OHCoordR2 = ang(1.10), ang(1.90)
	p.HHCoordR1, p.HHCoordR2 = ang(0.85), ang(2.10)
	p.MOCoordR1, p.MOCoordR2 = ang(2.10), ang(3.10)
	p.MHCoordR1, p.MHCoordR2 = ang(1.90), ang(3.60)
	p.COH = 0.30
	p.CWH = 0.65
	p.Cutoff = ang(5.5)
	return p
}
