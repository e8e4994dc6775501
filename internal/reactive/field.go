package reactive

import (
	"math"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
)

// skin is the Verlet-list margin (Bohr): the list admits pairs up to
// their reach plus skin and stays valid until some atom has moved more
// than skin/2 from where it stood at the build.
const skin = 1.5

// An atom's kind is its species reduced to what the field distinguishes.
// kindOther is every species outside H, O, Li, Al: Pairs holds no Morse
// term for it (its key type is unexported and DefaultParams names only
// these four), so it feels the core repulsion alone.
const (
	kindH uint8 = iota
	kindO
	kindLi
	kindAl
	kindOther
	numKinds
)

var kindSpecies = [kindOther]*atoms.Species{atoms.Hydrogen, atoms.Oxygen, atoms.Lithium, atoms.Aluminum}

func kindOf(sp *atoms.Species) uint8 {
	for k, ks := range kindSpecies {
		if sp == ks {
			return uint8(k)
		}
	}
	return kindOther
}

func metal(k uint8) bool { return k == kindLi || k == kindAl }

// Field is the reactive force field. It caches a Verlet neighbour list
// and its scratch between calls, so a Field must not be shared across
// goroutines or across different trajectories concurrently.
//
// The list is pair-ranged: a pair is admitted only within the reach of
// its two kinds — the largest distance at which any term of the field
// couples them — plus the skin, so the 8 in 9 water pairs (O–H, H–H) that
// stop interacting at 2.2–2.8 Å never enter it. Entries keep the order
// atoms.VisitPairs emits them in; that order is the summation order and
// part of the numerical contract (DESIGN.md, "The reactive engine").
type Field struct {
	P Params

	// CSR Verlet list: the neighbours of atom i are entries
	// start[i]:start[i+1] of j (index), d (minimum-image displacement
	// i→j) and r (|d|); d and r are refreshed on every call. All arrays
	// are reused across rebuilds.
	start []int32
	j     []int32
	d     []geom.Vec3
	r     []float64

	kind  []uint8                     // per atom, at the last build
	pos0  []geom.Vec3                 // positions at the last build
	cellL float64                     // cell side at the last build
	reach [numKinds][numKinds]float64 // reach the list was built with

	acc []float64 // the twelve per-atom accumulators of Compute
}

// NewField returns a Field with the default calibrated parameters.
func NewField() *Field { return &Field{P: DefaultParams()} }

// pairTables derives the per-kind-pair Morse terms and reaches from P.
// It runs on every Compute (kinds² work), so an edit to P between calls
// takes effect at once; a changed reach rebuilds the list. A kind pair
// without a Morse term keeps the zero Morse, whose Rc = 0 no distance is
// inside. The reach is the largest of the pair's Morse cutoff, the core
// cutoff and the R2 of every coordination count the pair feeds, capped at
// P.Cutoff, the range of the one global list this one replaces.
func (f *Field) pairTables() (morse [numKinds][numKinds]Morse, reach [numKinds][numKinds]float64) {
	p := &f.P
	for ki := range numKinds {
		for kj := range numKinds {
			rc := p.CoreRc
			if ki < kindOther && kj < kindOther {
				morse[ki][kj] = p.Pairs[keyOf(kindSpecies[ki], kindSpecies[kj])]
				rc = max(rc, morse[ki][kj].Rc)
			}
			h, o, m := ki == kindH || kj == kindH, ki == kindO || kj == kindO, metal(ki) || metal(kj)
			switch {
			case h && o:
				rc = max(rc, p.OHCoordR2)
			case ki == kindH && kj == kindH:
				rc = max(rc, p.HHCoordR2)
			case m && o:
				rc = max(rc, p.MOCoordR2)
			case m && h:
				rc = max(rc, p.MHCoordR2)
			}
			reach[ki][kj] = min(rc, p.Cutoff)
		}
	}
	return morse, reach
}

// neighbors brings the list up to date with sys: it is rebuilt when the
// system, the cell, a species or a reach changed or any atom has moved
// more than half the skin since the last build, and its displacement
// vectors and distances are recomputed for the current positions either
// way.
func (f *Field) neighbors(sys *atoms.System, reach [numKinds][numKinds]float64) {
	const half2 = (skin / 2) * (skin / 2)
	fresh := len(f.pos0) == len(sys.Atoms) && f.cellL == sys.Cell.L && f.reach == reach
	for i := 0; fresh && i < len(sys.Atoms); i++ {
		a := &sys.Atoms[i]
		fresh = kindOf(a.Species) == f.kind[i] && sys.Cell.MinImage(f.pos0[i], a.Position).Norm2() <= half2
	}
	if !fresh {
		f.build(sys, reach)
	}
	for i := range sys.Atoms {
		pi := sys.Atoms[i].Position
		for k := f.start[i]; k < f.start[i+1]; k++ {
			d := sys.Cell.MinImage(pi, sys.Atoms[f.j[k]].Position)
			f.d[k] = d
			f.r[k] = d.Norm()
		}
	}
}

// build refills the list from one linked-cell traversal at the global
// range P.Cutoff+skin (the grid, and so the visiting order, of the list
// this one replaces), keeping the pairs inside their own reach + skin.
// An entry left out has every term identically zero until the next
// build: its atoms start at least reach + skin apart and each moves at
// most skin/2 before the list is rebuilt.
func (f *Field) build(sys *atoms.System, reach [numKinds][numKinds]float64) {
	n := len(sys.Atoms)
	f.kind, f.pos0, f.start = resize(f.kind, n), resize(f.pos0, n), resize(f.start, n+1)
	for i := range sys.Atoms {
		f.kind[i], f.pos0[i] = kindOf(sys.Atoms[i].Species), sys.Atoms[i].Position
	}
	f.cellL, f.reach = sys.Cell.L, reach
	var lim2 [numKinds][numKinds]float64
	for ki := range reach {
		for kj, rc := range reach[ki] {
			lim2[ki][kj] = (rc + skin) * (rc + skin)
		}
	}
	f.j, f.start[0] = f.j[:0], 0
	row := 0 // rows below it are closed: start[1..row] set
	atoms.VisitPairs(sys, f.P.Cutoff+skin, func(i, j int, _ geom.Vec3, r2 float64) {
		if r2 >= lim2[f.kind[i]][f.kind[j]] {
			return
		}
		for ; row < i; row++ {
			f.start[row+1] = int32(len(f.j))
		}
		f.j = append(f.j, int32(j))
	})
	for ; row < n; row++ {
		f.start[row+1] = int32(len(f.j))
	}
	// d and r grow on j's schedule, not on every build that adds a pair.
	f.d, f.r = resize(f.d, cap(f.j))[:len(f.j)], resize(f.r, cap(f.j))[:len(f.j)]
}

// resize returns s with length n, reallocating only when it must grow;
// the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fc is the smooth cutoff: 1 below r1, cosine switch to 0 at r2.
func fc(r, r1, r2 float64) float64 {
	if r <= r1 {
		return 1
	}
	if r >= r2 {
		return 0
	}
	return 0.5 * (1 + math.Cos(math.Pi*(r-r1)/(r2-r1)))
}

// fcDeriv is dfc/dr.
func fcDeriv(r, r1, r2 float64) float64 {
	if r <= r1 || r >= r2 {
		return 0
	}
	return -0.5 * math.Pi / (r2 - r1) * math.Sin(math.Pi*(r-r1)/(r2-r1))
}

// gSmooth is the saturating bond-order switch: smoothstep clamped to
// [0, 1] — g(0)=0, g(1)=1, g'(0)=g'(1)=0.
func gSmooth(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return x * x * (3 - 2*x)
}

func gSmoothDeriv(x float64) float64 {
	if x <= 0 || x >= 1 {
		return 0
	}
	return 6 * x * (1 - x)
}

// hExcess is a smooth ramp used for valence saturation: 0 with zero slope
// at x ≤ 0, asymptotically linear (h(x) = x for x ≥ 1).
func hExcess(x float64) float64 { return x * gSmooth(x) }

func hExcessDeriv(x float64) float64 {
	return gSmooth(x) + x*gSmoothDeriv(x)
}

// valence returns the saturation factor 1/(1+h(x)) and its derivative:
// a bond competing with x other full bonds beyond the allowed valence is
// reduced so the total bond energy decreases with over-coordination.
func valence(x float64) (s, ds float64) {
	d := 1 + hExcess(x)
	s = 1 / d
	ds = -hExcessDeriv(x) / (d * d)
	return
}

// Compute implements md.ForceField. The returned forces are the caller's
// to keep; everything else is scratch the Field reuses.
func (f *Field) Compute(sys *atoms.System) (float64, []geom.Vec3, error) {
	if err := sys.Validate(); err != nil {
		return 0, nil, err
	}
	n := len(sys.Atoms)
	morse, reach := f.pairTables()
	f.neighbors(sys, reach)
	forces := make([]geom.Vec3, n)
	p, kind, start, nbJ, nbD, nbR := &f.P, f.kind, f.start, f.j, f.d, f.r

	f.acc = resize(f.acc, 12*n)
	clear(f.acc)
	block := func(k int) []float64 { return f.acc[k*n : (k+1)*n : (k+1)*n] }

	// Pass 1: coordinations.
	u := block(0)  // oxygen coordination of each H
	v := block(1)  // hydrogen coordination of each H
	m := block(2)  // metal coordination of each O
	q := block(3)  // hydrogen coordination of each O
	w := block(4)  // metal coordination of each H
	oc := block(5) // oxide-oxygen coordination of each H (autocatalysis)
	for i := range n {
		switch kind[i] {
		case kindH:
			for k := start[i]; k < start[i+1]; k++ {
				if kj := kind[nbJ[k]]; kj == kindO {
					u[i] += fc(nbR[k], p.OHCoordR1, p.OHCoordR2)
				} else if kj == kindH {
					v[i] += fc(nbR[k], p.HHCoordR1, p.HHCoordR2)
				} else if metal(kj) {
					w[i] += fc(nbR[k], p.MHCoordR1, p.MHCoordR2)
				}
			}
		case kindO:
			for k := start[i]; k < start[i+1]; k++ {
				if kj := kind[nbJ[k]]; metal(kj) {
					m[i] += fc(nbR[k], p.MOCoordR1, p.MOCoordR2)
				} else if kj == kindH {
					q[i] += fc(nbR[k], p.OHCoordR1, p.OHCoordR2)
				}
			}
		}
	}

	// Pass 1b: oc[H] = Σ_{O'} fc(r_HO')·g(m_O') — how strongly each H
	// touches METAL-COORDINATED oxygens. This drives both the Lewis
	// acid-base weakening at adsorbed water (the parent O term) and the
	// paper's bridging-oxygen autocatalysis (§6): Li-O-Al oxide oxygens
	// actively assist the breakage of neighbouring O–H bonds.
	for i := range n {
		if kind[i] != kindH {
			continue
		}
		for k := start[i]; k < start[i+1]; k++ {
			if j := nbJ[k]; kind[j] == kindO {
				oc[i] += fc(nbR[k], p.OHCoordR1, p.OHCoordR2) * gSmooth(m[j])
			}
		}
	}

	// Pass 2: pair energies, radial forces, and accumulation of the
	// bond-order energy derivatives dE/du, dE/dv, dE/dm, dE/dq.
	dEdu := block(6)
	dEdv := block(7)
	dEdm := block(8)
	dEdq := block(9)
	dEdw := block(10)
	dEdoc := block(11)
	var energy float64
	for i := range n {
		ki := kind[i]
		for k := start[i]; k < start[i+1]; k++ {
			j := int(nbJ[k])
			if j <= i {
				continue // each pair once
			}
			kj := kind[j]
			r := nbR[k]
			if r < 1e-9 {
				continue
			}
			// Core repulsion (never scaled).
			if r < p.CoreRc {
				e := p.CoreA * math.Exp(-r/p.CoreRho)
				energy += e
				dEdr := -e / p.CoreRho
				addPairForce(forces, i, j, nbD[k], r, dEdr)
			}
			mp := &morse[ki][kj]
			if r >= mp.Rc {
				continue
			}
			// Morse well: φ(r) = (1 − e^{−a(r−r0)})² − 1 ∈ [−1, …).
			ex := math.Exp(-mp.A * (r - mp.R0))
			phi := (1-ex)*(1-ex) - 1
			dphi := 2 * mp.A * ex * (1 - ex)
			// Smooth truncation to zero at the pair cutoff.
			sw := fc(r, 0.75*mp.Rc, mp.Rc)
			dsw := fcDeriv(r, 0.75*mp.Rc, mp.Rc)

			// Bond-order scale; its coordination derivatives feed the
			// dE/du, dE/dv, dE/dm accumulators (the pair's energy varies
			// with every bond that builds the coordination number).
			base := mp.D * phi * sw // pair energy before scaling
			s := 1.0
			switch {
			case (ki == kindO && kj == kindH) || (ki == kindH && kj == kindO):
				oi, hi := i, j
				if ki == kindH {
					oi, hi = j, i
				}
				// Ingredient 1, two channels: contact with metal-
				// coordinated oxygens — the adsorbed parent O AND
				// bridging oxide oxygens (autocatalysis, §6) — weakens
				// the bond (oc-dependent), and a hydrogen swinging toward
				// the surface trades its O–H bond for a hydride bond
				// (w-dependent).
				aFacM := 1 - p.COH*gSmooth(oc[hi])
				aFacW := 1 - p.CWH*gSmooth(w[hi])
				aFac := aFacM * aFacW
				// Valence saturation, excluding this bond's own
				// contribution to the coordination counts: an oxygen
				// supports two hydrogens, a hydrogen one oxygen.
				fcSelf := fc(r, p.OHCoordR1, p.OHCoordR2)
				dfcSelf := fcDeriv(r, p.OHCoordR1, p.OHCoordR2)
				qExcl := q[oi] - fcSelf
				uExcl := u[hi] - fcSelf
				bFac, dB := valence(qExcl - 1)
				cFac, dC := valence(uExcl)
				s = aFac * bFac * cFac
				dEdoc[hi] += base * (-p.COH * gSmoothDeriv(oc[hi])) * aFacW * bFac * cFac
				dEdw[hi] += base * aFacM * (-p.CWH * gSmoothDeriv(w[hi])) * bFac * cFac
				dEdq[oi] += base * aFac * dB * cFac
				dEdu[hi] += base * aFac * bFac * dC
				// The self-exclusion makes S depend on this pair's own r:
				// ∂S/∂r = −fc'(r)·(∂S/∂q + ∂S/∂u) terms.
				extraDEdr := base * aFac * (dB*cFac + bFac*dC) * (-dfcSelf)
				addPairForce(forces, i, j, nbD[k], r, extraDEdr)
			case ki == kindH && kj == kindH:
				// Ingredient 2: only oxygen-free hydrogens bind as H₂,
				// and each hydrogen saturates at one H partner (no
				// unbounded H clustering).
				gi := gSmooth(u[i])
				gj := gSmooth(u[j])
				fcSelf := fc(r, p.HHCoordR1, p.HHCoordR2)
				dfcSelf := fcDeriv(r, p.HHCoordR1, p.HHCoordR2)
				bi, dBi := valence(v[i] - fcSelf)
				bj, dBj := valence(v[j] - fcSelf)
				s = (1 - gi) * (1 - gj) * bi * bj
				dEdu[i] += base * (-gSmoothDeriv(u[i]) * (1 - gj) * bi * bj)
				dEdu[j] += base * (-(1 - gi) * gSmoothDeriv(u[j]) * bi * bj)
				dEdv[i] += base * (1 - gi) * (1 - gj) * dBi * bj
				dEdv[j] += base * (1 - gi) * (1 - gj) * bi * dBj
				extra := base * (1 - gi) * (1 - gj) * (dBi*bj + bi*dBj) * (-dfcSelf)
				addPairForce(forces, i, j, nbD[k], r, extra)
			case ki == kindH && metal(kj), kj == kindH && metal(ki):
				// Hydride intermediates: free atomic H binds the metal;
				// H in H₂ (v > 0) or in water (u > 0) much less, and a
				// hydride saturates at roughly one metal bond.
				hi := i
				if kj == kindH {
					hi = j
				}
				gv := gSmooth(v[hi])
				gu := gSmooth(u[hi])
				fcSelf := fc(r, p.MHCoordR1, p.MHCoordR2)
				dfcSelf := fcDeriv(r, p.MHCoordR1, p.MHCoordR2)
				bw, dBw := valence(w[hi] - fcSelf)
				s = (1 - gv) * (1 - 0.5*gu) * bw
				dEdv[hi] += base * (-gSmoothDeriv(v[hi]) * (1 - 0.5*gu) * bw)
				dEdu[hi] += base * ((1 - gv) * (-0.5 * gSmoothDeriv(u[hi])) * bw)
				dEdw[hi] += base * (1 - gv) * (1 - 0.5*gu) * dBw
				addPairForce(forces, i, j, nbD[k], r,
					base*(1-gv)*(1-0.5*gu)*dBw*(-dfcSelf))
			}

			energy += s * base
			dEdr := s * mp.D * (dphi*sw + phi*dsw)
			addPairForce(forces, i, j, nbD[k], r, dEdr)
		}
	}

	// Pass 3a: distribute the autocatalysis derivative dE/d(oc_H):
	// oc depends on every H–O' distance (radial force) and on each O''s
	// metal coordination (feeds dE/dm, distributed in pass 3b).
	for i := range n {
		if kind[i] != kindH || dEdoc[i] == 0 {
			continue
		}
		for k := start[i]; k < start[i+1]; k++ {
			j := int(nbJ[k])
			if kind[j] != kindO {
				continue
			}
			gm := gSmooth(m[j])
			if d := fcDeriv(nbR[k], p.OHCoordR1, p.OHCoordR2); d != 0 && gm != 0 {
				addPairForce(forces, i, j, nbD[k], nbR[k], dEdoc[i]*gm*d)
			}
			if fcv := fc(nbR[k], p.OHCoordR1, p.OHCoordR2); fcv != 0 {
				dEdm[j] += dEdoc[i] * fcv * gSmoothDeriv(m[j])
			}
		}
	}

	// Pass 3b: distribute coordination forces through ∂n/∂r: entry k of
	// row i carries the derivative dEdn of a count switched off between
	// r1 and r2.
	coord := func(i int, k int32, dEdn, r1, r2 float64) {
		if d := fcDeriv(nbR[k], r1, r2); d != 0 {
			addPairForce(forces, i, int(nbJ[k]), nbD[k], nbR[k], dEdn*d)
		}
	}
	for i := range n {
		switch ki := kind[i]; {
		case ki == kindH && (dEdu[i] != 0 || dEdv[i] != 0 || dEdw[i] != 0):
			for k := start[i]; k < start[i+1]; k++ {
				if kj := kind[nbJ[k]]; kj == kindO && dEdu[i] != 0 {
					coord(i, k, dEdu[i], p.OHCoordR1, p.OHCoordR2)
				} else if kj == kindH && dEdv[i] != 0 {
					coord(i, k, dEdv[i], p.HHCoordR1, p.HHCoordR2)
				} else if metal(kj) && dEdw[i] != 0 {
					coord(i, k, dEdw[i], p.MHCoordR1, p.MHCoordR2)
				}
			}
		case ki == kindO && (dEdm[i] != 0 || dEdq[i] != 0):
			for k := start[i]; k < start[i+1]; k++ {
				if kj := kind[nbJ[k]]; metal(kj) && dEdm[i] != 0 {
					coord(i, k, dEdm[i], p.MOCoordR1, p.MOCoordR2)
				} else if kj == kindH && dEdq[i] != 0 {
					coord(i, k, dEdq[i], p.OHCoordR1, p.OHCoordR2)
				}
			}
		}
	}
	return energy, forces, nil
}

// addPairForce applies the radial force −dEdr·r̂ to atoms i and j, where
// d is the minimum-image displacement i→j with |d| = r.
func addPairForce(forces []geom.Vec3, i, j int, d geom.Vec3, r, dEdr float64) {
	fvec := d.Scale(-dEdr / r) // force on j
	forces[j] = forces[j].Add(fvec)
	forces[i] = forces[i].Sub(fvec)
}
