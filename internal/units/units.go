// Package units defines physical constants and unit conversions used
// throughout the LDC-DFT code. All internal computation is in Hartree
// atomic units (a.u.): lengths in Bohr, energies in Hartree, masses in
// electron masses, and time in atomic time units.
package units

const (
	// BohrPerAngstrom converts Angstrom to Bohr.
	BohrPerAngstrom = 1.8897259886

	// AngstromPerBohr converts Bohr to Angstrom.
	AngstromPerBohr = 1.0 / BohrPerAngstrom

	// EVPerHartree converts Hartree to electron-volts.
	EVPerHartree = 27.211386245988

	// HartreePerEV converts electron-volts to Hartree.
	HartreePerEV = 1.0 / EVPerHartree

	// KelvinPerHartree converts Hartree to Kelvin (E = kB*T).
	KelvinPerHartree = 315775.02480407

	// HartreePerKelvin is Boltzmann's constant in Hartree per Kelvin.
	HartreePerKelvin = 1.0 / KelvinPerHartree

	// FsPerAtomicTime converts one atomic time unit to femtoseconds.
	FsPerAtomicTime = 0.02418884326586

	// AtomicTimePerFs converts femtoseconds to atomic time units.
	AtomicTimePerFs = 1.0 / FsPerAtomicTime

	// ElectronMassPerAMU converts amu to electron masses.
	ElectronMassPerAMU = 1822.888486209
)

// PaperTimeStepFs is the unit time step used by the production runs in the
// paper (section 6): 0.242 fs.
const PaperTimeStepFs = 0.242

// KelvinToHartree converts a temperature in Kelvin to an energy in Hartree.
func KelvinToHartree(t float64) float64 { return t * HartreePerKelvin }

// HartreeToKelvin converts an energy in Hartree to a temperature in Kelvin.
func HartreeToKelvin(e float64) float64 { return e * KelvinPerHartree }

// HartreeToEV converts an energy in Hartree to eV.
func HartreeToEV(e float64) float64 { return e * EVPerHartree }
