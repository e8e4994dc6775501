package atoms

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ldcdft/internal/geom"
	"ldcdft/internal/units"
)

// SiCLatticeConstant is the 3C-SiC conventional cubic lattice constant in
// Bohr (4.3596 Å).
const SiCLatticeConstant = 4.3596 * units.BohrPerAngstrom

// zincblende builds an nx×ny×nz replication of the conventional cubic
// zincblende cell (8 atoms: 4 of each species).
func zincblende(a float64, spA, spB *Species, n int) *System {
	basisA := [][3]float64{{0, 0, 0}, {0, 0.5, 0.5}, {0.5, 0, 0.5}, {0.5, 0.5, 0}}
	basisB := [][3]float64{{0.25, 0.25, 0.25}, {0.25, 0.75, 0.75}, {0.75, 0.25, 0.75}, {0.75, 0.75, 0.25}}
	s := &System{Cell: geom.Cell{L: a * float64(n)}}
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				off := geom.Vec3{X: float64(ix), Y: float64(iy), Z: float64(iz)}
				for _, b := range basisA {
					p := off.Add(geom.Vec3{X: b[0], Y: b[1], Z: b[2]}).Scale(a)
					s.Atoms = append(s.Atoms, Atom{Species: spA, Position: p})
				}
				for _, b := range basisB {
					p := off.Add(geom.Vec3{X: b[0], Y: b[1], Z: b[2]}).Scale(a)
					s.Atoms = append(s.Atoms, Atom{Species: spB, Position: p})
				}
			}
		}
	}
	return s
}

// BuildSiC builds an n×n×n supercell of crystalline 3C-SiC (8n³ atoms) —
// the weak-scaling workload of §5.1.
func BuildSiC(n int) *System { return zincblende(SiCLatticeConstant, Silicon, Carbon, n) }

// LiAlParticleSpec describes a LinAln nanoparticle-in-water system.
type LiAlParticleSpec struct {
	PairCount int     // n in LinAln: number of Li (and Al) atoms
	WaterGap  float64 // minimum particle-water separation (Bohr)
	CellL     float64 // cell edge; 0 = auto-size
}

// BuildLiAlInWater builds a LinAln nanoparticle (rocksalt-ordered B32-like
// Li/Al arrangement, carved as a sphere) immersed in water, the workload
// of §5.1 (strong scaling) and §6. The paper's systems are n = 30 (606
// atoms with 182 H2O), n = 135 (4,836 atoms), and n = 441 (16,611 atoms).
func BuildLiAlInWater(spec LiAlParticleSpec, rng *rand.Rand) (*System, error) {
	if spec.PairCount < 1 {
		return nil, fmt.Errorf("atoms: invalid pair count %d", spec.PairCount)
	}
	if spec.WaterGap == 0 {
		spec.WaterGap = 4.0
	}
	// LiAl rocksalt-like lattice: alternating Li/Al on a simple cubic grid
	// with nearest-neighbour spacing d (the B32 Li-Al distance ≈ 2.72 Å).
	d := 2.72 * units.BohrPerAngstrom
	// Carve a sphere containing 2n atoms with equal Li and Al counts.
	radius := estimateParticleRadius(2*spec.PairCount, d)
	type site struct {
		p  geom.Vec3
		li bool
		r  float64
	}
	var sites []site
	m := int(radius/d) + 2
	for ix := -m; ix <= m; ix++ {
		for iy := -m; iy <= m; iy++ {
			for iz := -m; iz <= m; iz++ {
				p := geom.Vec3{X: float64(ix) * d, Y: float64(iy) * d, Z: float64(iz) * d}
				sites = append(sites, site{p: p, li: (ix+iy+iz)%2 != 0, r: p.Norm()})
			}
		}
	}
	// Sort by radius; simple full sort is fine at these sizes.
	sort.Slice(sites, func(i, j int) bool { return sites[i].r < sites[j].r })
	var liSites, alSites []geom.Vec3
	for _, st := range sites {
		if st.li && len(liSites) < spec.PairCount {
			liSites = append(liSites, st.p)
		} else if !st.li && len(alSites) < spec.PairCount {
			alSites = append(alSites, st.p)
		}
		if len(liSites) == spec.PairCount && len(alSites) == spec.PairCount {
			break
		}
	}
	if len(liSites) < spec.PairCount || len(alSites) < spec.PairCount {
		return nil, fmt.Errorf("atoms: could not carve Li%dAl%d particle", spec.PairCount, spec.PairCount)
	}
	// Particle radius actually used.
	var rmax float64
	for _, p := range liSites {
		if r := p.Norm(); r > rmax {
			rmax = r
		}
	}
	for _, p := range alSites {
		if r := p.Norm(); r > rmax {
			rmax = r
		}
	}
	// Cell size: particle + water shell. Water density 0.997 g/cm³ →
	// number density 0.03337 molecules/Å³ = 1.1087e-5 per Bohr³... use
	// exact: 0.03337 / BohrPerAngstrom³.
	waterDensity := 0.03337 / (units.BohrPerAngstrom * units.BohrPerAngstrom * units.BohrPerAngstrom)
	cellL := spec.CellL
	if cellL == 0 {
		cellL = 2 * (rmax + spec.WaterGap + 8)
	}
	sys := &System{Cell: geom.Cell{L: cellL}}
	center := geom.Vec3{X: cellL / 2, Y: cellL / 2, Z: cellL / 2}
	for _, p := range liSites {
		sys.Atoms = append(sys.Atoms, Atom{Species: Lithium, Position: center.Add(p)})
	}
	for _, p := range alSites {
		sys.Atoms = append(sys.Atoms, Atom{Species: Aluminum, Position: center.Add(p)})
	}
	// Fill the remaining volume with water molecules on a cubic lattice
	// with random orientations, excluding a shell around the particle.
	// Placing one molecule at every eligible lattice site reproduces
	// liquid density exactly (the lattice spacing is density^{-1/3}).
	spacing := math.Cbrt(1 / waterDensity)
	ngrid := int(cellL / spacing)
	if ngrid < 1 {
		ngrid = 1
	}
	// Exclude water sites by distance to the NEAREST particle atom (not a
	// bounding sphere): stepped or faceted particle surfaces stay wetted
	// uniformly, so the per-surface-atom reactivity is size-independent
	// by construction (the Fig. 9(b) premise).
	metalCount := len(sys.Atoms)
	for ix := 0; ix < ngrid; ix++ {
		for iy := 0; iy < ngrid; iy++ {
			for iz := 0; iz < ngrid; iz++ {
				p := geom.Vec3{
					X: (float64(ix) + 0.5) * cellL / float64(ngrid),
					Y: (float64(iy) + 0.5) * cellL / float64(ngrid),
					Z: (float64(iz) + 0.5) * cellL / float64(ngrid),
				}
				tooClose := false
				for mi := 0; mi < metalCount; mi++ {
					if sys.Cell.MinImage(sys.Atoms[mi].Position, p).Norm() < spec.WaterGap {
						tooClose = true
						break
					}
				}
				if tooClose {
					continue
				}
				addWater(sys, p, rng)
			}
		}
	}
	sys.WrapAll()
	return sys, nil
}

// addWater appends one water molecule at position p with random
// orientation (O-H bond 0.9572 Å, H-O-H angle 104.52°).
func addWater(sys *System, p geom.Vec3, rng *rand.Rand) {
	const (
		rOHAngstrom = 0.9572
		angleDeg    = 104.52
	)
	rOH := rOHAngstrom * units.BohrPerAngstrom
	half := angleDeg / 2 * math.Pi / 180
	// Local frame: two O-H bonds in the xz-plane.
	h1 := geom.Vec3{X: rOH * math.Sin(half), Z: rOH * math.Cos(half)}
	h2 := geom.Vec3{X: -rOH * math.Sin(half), Z: rOH * math.Cos(half)}
	// Random rotation via random unit quaternion.
	rot := randomRotation(rng)
	sys.Atoms = append(sys.Atoms,
		Atom{Species: Oxygen, Position: p},
		Atom{Species: Hydrogen, Position: p.Add(rot(h1))},
		Atom{Species: Hydrogen, Position: p.Add(rot(h2))},
	)
}

// randomRotation returns a uniformly random rotation as a closure.
func randomRotation(rng *rand.Rand) func(geom.Vec3) geom.Vec3 {
	// Shoemake's method for uniform quaternions.
	u1, u2, u3 := rng.Float64(), rng.Float64(), rng.Float64()
	q0 := math.Sqrt(1-u1) * math.Sin(2*math.Pi*u2)
	q1 := math.Sqrt(1-u1) * math.Cos(2*math.Pi*u2)
	q2 := math.Sqrt(u1) * math.Sin(2*math.Pi*u3)
	q3 := math.Sqrt(u1) * math.Cos(2*math.Pi*u3)
	w, x, y, z := q0, q1, q2, q3
	return func(v geom.Vec3) geom.Vec3 {
		// Rotate v by quaternion (w, x, y, z).
		return geom.Vec3{
			X: (1-2*(y*y+z*z))*v.X + 2*(x*y-w*z)*v.Y + 2*(x*z+w*y)*v.Z,
			Y: 2*(x*y+w*z)*v.X + (1-2*(x*x+z*z))*v.Y + 2*(y*z-w*x)*v.Z,
			Z: 2*(x*z-w*y)*v.X + 2*(y*z+w*x)*v.Y + (1-2*(x*x+y*y))*v.Z,
		}
	}
}

func estimateParticleRadius(nAtoms int, d float64) float64 {
	// Simple cubic with spacing d → one atom per d³.
	return math.Cbrt(3*float64(nAtoms)/(4*math.Pi)) * d
}
