package pw

import (
	"math"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/linalg"
	"ldcdft/internal/pseudo"
)

// IonIon returns the ion-ion interaction energy and per-atom forces for
// the model pair potential matching the screened local pseudopotential:
// E = Σ_{i<j} Z_i Z_j [ e^{−κ̄ r}/r + A e^{−r/r₀} ] with κ̄ the mean
// screening of the pair and a short-range Born–Mayer core repulsion.
// Minimum-image convention; the screening makes the lattice sum
// effectively short-ranged, standing in for the Ewald sum of a
// production code.
func IonIon(cell geom.Cell, species []*atoms.Species, positions []geom.Vec3) (float64, []geom.Vec3) {
	n := len(positions)
	forces := make([]geom.Vec3, n)
	var energy float64
	const (
		coreA    = 18.0 // Born–Mayer prefactor (Hartree)
		coreFrac = 0.45 // r₀ as a fraction of σ_i+σ_j
	)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := cell.MinImage(positions[i], positions[j])
			r := d.Norm()
			if r < 1e-9 {
				continue
			}
			zz := species[i].Valence * species[j].Valence
			kap := 0.5 * (species[i].PsKappa + species[j].PsKappa)
			r0 := coreFrac * (species[i].PsSigma + species[j].PsSigma)
			eScr := zz * math.Exp(-kap*r) / r
			eCore := coreA * zz * math.Exp(-r/r0)
			energy += eScr + eCore
			// dE/dr.
			dEdr := -eScr*(kap+1/r) - eCore/r0
			// Force on j along +d, on i along −d (d points i→j).
			f := d.Scale(-dEdr / r)
			forces[j] = forces[j].Add(f)
			forces[i] = forces[i].Sub(f)
		}
	}
	return energy, forces
}

// LocalForces returns the Hellmann–Feynman forces from the local
// pseudopotential: F_I = Σ_G iG v_I(G) e^{−iG·R_I} ρ*_G with
// ρ_G = (1/Ω)∫ρ e^{−iG·r} dr, summed over the full FFT reciprocal grid.
//
// ρ is real, so ρ̂_{−m} = conj(ρ̂_m) exactly and the sum runs over the
// Hermitian-packed half spectrum from the r2c transform — halving both
// the FFT and the per-atom trig. Bins whose conjugate partner is stored
// too (the self-conjugate iz = 0 and, for even N, iz = N/2 planes) keep
// weight 1; for the rest the partner's contribution equals this bin's,
// so weight 2 — except on the x/y Nyquist planes, where the folded
// frequency keeps its sign under m → −m and the partner term must be
// added explicitly (the mirror frequency m of Basis.EachHalf) to stay
// the exact gradient of the assembled energy.
func LocalForces(b *Basis, rho []float64, species []*atoms.Species, positions []geom.Vec3) []geom.Vec3 {
	work := b.GetHalfGrid()
	defer b.PutHalfGrid(work)
	b.rplan.Forward(rho, work)
	// work[m] = Σ_j ρ_j e^{−iG·r_j} = N³ ρ_G Ω/(h³N³)… combine: ρ_G =
	// (h³/Ω)·work[m] = work[m]/N³.
	invN3 := 1 / float64(b.Grid.Size())
	forces := make([]geom.Vec3, len(positions))
	b.EachHalf(func(i int, g, m geom.Vec3, g2 float64) {
		if g2 == 0 {
			return
		}
		// iz = 0 (gz = 0) and the z Nyquist plane (mz ≠ gz) are
		// self-conjugate.
		selfConj := g.Z == 0 || m.Z != g.Z
		mirror := !selfConj && (m.X != g.X || m.Y != g.Y)
		weight := invN3
		if !selfConj && !mirror {
			weight = 2 * invN3
		}
		rhoG := work[i] * complex(weight, 0)
		cr := real(rhoG)
		ci := imag(rhoG)
		for ai, sp := range species {
			v := pseudo.LocalG(sp, g2)
			if v == 0 {
				continue
			}
			r := positions[ai]
			ph := -(g.X*r.X + g.Y*r.Y + g.Z*r.Z)
			// iG v e^{iph} ρ*_G; real part accumulates.
			// e^{iph} = (cp, sp); ρ*_G = (cr, −ci).
			cp := math.Cos(ph)
			s := math.Sin(ph)
			// (i)(cp + i s)(cr − i ci) = i[(cp·cr + s·ci) + i(s·cr − cp·ci)]
			// real part = −(s·cr − cp·ci) = cp·ci − s·cr.
			re := (cp*ci - s*cr) * v
			f := geom.Vec3{X: g.X * re, Y: g.Y * re, Z: g.Z * re}
			if mirror {
				// Missing partner at G' = (−mx, −my, −gz) with
				// ρ*_{G'} = ρ_G: real part of iG'v e^{−iG'·R}ρ_G.
				ph2 := m.X*r.X + m.Y*r.Y + g.Z*r.Z
				cp2 := math.Cos(ph2)
				s2 := math.Sin(ph2)
				re2 := (cp2*ci + s2*cr) * v
				f = f.Add(geom.Vec3{X: m.X * re2, Y: m.Y * re2, Z: g.Z * re2})
			}
			forces[ai] = forces[ai].Add(f)
		}
	})
	return forces
}

// NonlocalForces returns the Hellmann–Feynman forces from the separable
// nonlocal projectors: for projector p on atom I and band n with
// projection c_n = ⟨β_p|ψ_n⟩, the energy D_p Σ_n f_n |c_n|² varies as
// ∂c/∂R_I = Σ_G iG conj(β_p(G)) ψ_n(G), giving
// F_I = −Σ_n f_n D_p · 2Re[c_n* ∂c_n/∂R_I].
func NonlocalForces(b *Basis, pr *pseudo.Projectors, psi *linalg.CMatrix,
	occ []float64, natoms int) []geom.Vec3 {
	forces := make([]geom.Vec3, natoms)
	if pr == nil || pr.NumProjectors() == 0 {
		return forces
	}
	np := b.Np()
	nb := psi.Cols
	col := make([]complex128, np)
	for p := 0; p < pr.NumProjectors(); p++ {
		ai := pr.Atom[p]
		d := pr.D[p]
		for n := 0; n < nb; n++ {
			f := occ[n]
			if f == 0 {
				continue
			}
			psi.Col(n, col)
			var c, cx, cy, cz complex128
			for gi := 0; gi < np; gi++ {
				bg := pr.B.At(gi, p)
				cb := complex(real(bg), -imag(bg)) // conj(β)
				t := cb * col[gi]
				c += t
				ig := complex(0, 1)
				g := b.G[gi]
				cx += ig * complex(g.X, 0) * t
				cy += ig * complex(g.Y, 0) * t
				cz += ig * complex(g.Z, 0) * t
			}
			cc := complex(real(c), -imag(c))
			forces[ai] = forces[ai].Sub(geom.Vec3{
				X: 2 * f * d * real(cc*cx),
				Y: 2 * f * d * real(cc*cy),
				Z: 2 * f * d * real(cc*cz),
			})
		}
	}
	return forces
}
