// Package xc implements the local-density exchange-correlation
// functional used by the model Kohn–Sham Hamiltonian: Slater exchange
// plus Wigner correlation. Both the energy density ε_xc(ρ) and the
// potential v_xc = d(ρ ε_xc)/dρ are provided (atomic units).
package xc

import "math"

// slaterC is the Slater exchange constant (3/4)(3/π)^{1/3}.
var slaterC = 0.75 * math.Cbrt(3/math.Pi)

// Wigner correlation parameters ε_c = −a/(r_s + b).
const (
	wignerA = 0.44
	wignerB = 7.8
)

// EnergyDensity returns ε_xc(ρ), the exchange-correlation energy per
// electron at density ρ. Non-positive densities return 0.
func EnergyDensity(rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	ex := -slaterC * math.Cbrt(rho)
	rs := math.Cbrt(3 / (4 * math.Pi * rho))
	ec := -wignerA / (rs + wignerB)
	return ex + ec
}

// Potential returns v_xc(ρ) = d(ρ ε_xc)/dρ. Non-positive densities
// return 0.
func Potential(rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	// Exchange: v_x = (4/3) ε_x = −(3ρ/π)^{1/3}.
	vx := -math.Cbrt(3 * rho / math.Pi)
	// Correlation: v_c = ε_c − (r_s/3) dε_c/dr_s.
	rs := math.Cbrt(3 / (4 * math.Pi * rho))
	ec := -wignerA / (rs + wignerB)
	dec := wignerA / ((rs + wignerB) * (rs + wignerB))
	vc := ec - rs/3*dec
	return vx + vc
}
