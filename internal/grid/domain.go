package grid

import (
	"fmt"

	"ldcdft/internal/geom"
)

// Domain is one divide-and-conquer domain Ωα = Ω0α ∪ Γα (Fig. 1(b)):
// a cubic core of CoreN³ grid points at origin (Ox, Oy, Oz) in global
// grid coordinates, extended by a buffer of BufN points on every side.
// The extended domain has EdgeN = CoreN + 2·BufN points per axis.
type Domain struct {
	Global     Grid
	Ox, Oy, Oz int // core origin in global grid coordinates
	CoreN      int // core points per axis (l = CoreN·h)
	BufN       int // buffer points per side (b = BufN·h)
}

// EdgeN returns the extended-domain points per axis.
func (d Domain) EdgeN() int { return d.CoreN + 2*d.BufN }

// LocalGrid returns the periodic grid of the extended domain. LDC-DFT
// imposes the periodic boundary condition on the local Kohn–Sham wave
// functions (§3.1), so the extended domain is itself a small periodic
// cell.
func (d Domain) LocalGrid() Grid {
	return Grid{N: d.EdgeN(), L: float64(d.EdgeN()) * d.Global.H()}
}

// Origin returns the spatial position of the extended domain's corner
// (the core corner shifted back by the buffer).
func (d Domain) Origin() geom.Vec3 {
	h := d.Global.H()
	return geom.Vec3{
		X: float64(d.Ox-d.BufN) * h,
		Y: float64(d.Oy-d.BufN) * h,
		Z: float64(d.Oz-d.BufN) * h,
	}
}

// Extract gathers the extended-domain values of a global field, wrapping
// periodically across the global cell (the nearest-neighbour ρα exchange
// of §5.1 in serial form).
func (d Domain) Extract(global *Field) *Field {
	return d.ExtractInto(global, NewField(d.LocalGrid()))
}

// ExtractInto is Extract into a caller-provided local field, so a reused
// workspace extracts without allocating. out must be on the domain's
// local grid; it is returned for convenience.
func (d Domain) ExtractInto(global, out *Field) *Field {
	if global.Grid != d.Global {
		panic("grid: domain/global grid mismatch")
	}
	e := d.EdgeN()
	if out.Grid != d.LocalGrid() || len(out.Data) != e*e*e {
		panic("grid: extract target does not match domain")
	}
	for ix := 0; ix < e; ix++ {
		gx := d.Ox - d.BufN + ix
		for iy := 0; iy < e; iy++ {
			gy := d.Oy - d.BufN + iy
			for iz := 0; iz < e; iz++ {
				gz := d.Oz - d.BufN + iz
				out.Data[(ix*e+iy)*e+iz] = global.Data[d.Global.Index(gx, gy, gz)]
			}
		}
	}
	return out
}

// AccumulateCore scatters the CORE region of a local (extended-domain)
// field into the global field, implementing the partition-of-unity
// density assembly ρ(r) = Σα pα(r) ρα(r) of Eq. (b) in Fig. 2: cores are
// non-overlapping and cover Ω, so pα is the core indicator.
func (d Domain) AccumulateCore(local, global *Field) {
	e := d.EdgeN()
	if len(local.Data) != e*e*e {
		panic("grid: local field does not match domain")
	}
	for ix := 0; ix < d.CoreN; ix++ {
		lx := ix + d.BufN
		gx := d.Ox + ix
		for iy := 0; iy < d.CoreN; iy++ {
			ly := iy + d.BufN
			gy := d.Oy + iy
			for iz := 0; iz < d.CoreN; iz++ {
				lz := iz + d.BufN
				gz := d.Oz + iz
				global.Data[d.Global.Index(gx, gy, gz)] = local.Data[(lx*e+ly)*e+lz]
			}
		}
	}
}

// Decompose tiles the global grid into nd³ domains with cores of
// N/nd points per axis and the given buffer point count. N must be
// divisible by nd.
func Decompose(g Grid, nd, bufN int) ([]Domain, error) {
	if err := CheckDecompose(g.N, nd, bufN); err != nil {
		return nil, err
	}
	coreN := g.N / nd
	doms := make([]Domain, 0, nd*nd*nd)
	for ix := 0; ix < nd; ix++ {
		for iy := 0; iy < nd; iy++ {
			for iz := 0; iz < nd; iz++ {
				doms = append(doms, Domain{
					Global: g,
					Ox:     ix * coreN, Oy: iy * coreN, Oz: iz * coreN,
					CoreN: coreN, BufN: bufN,
				})
			}
		}
	}
	return doms, nil
}

// CheckDecompose returns the error Decompose gives for n points per axis, nd
// domains per axis and bufN buffer points, without building the domains.
func CheckDecompose(n, nd, bufN int) error {
	if nd < 1 || n%nd != 0 {
		return fmt.Errorf("grid: %d points not divisible into %d domains per axis", n, nd)
	}
	if bufN < 0 {
		return fmt.Errorf("grid: negative buffer %d", bufN)
	}
	return nil
}
