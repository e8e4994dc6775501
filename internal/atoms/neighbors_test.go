package atoms

import (
	"math"
	"math/rand"
	"testing"

	"ldcdft/internal/geom"
)

type visit struct {
	i, j int
	d    geom.Vec3
	r2   float64
}

// referencePairs is the neighbour scan as BuildNeighborList ran it before
// VisitPairs existed — linked cells, every one of the 27 neighbour cells
// walked, no far-cell skip — kept as the order and bit reference.
func referencePairs(s *System, rc float64) []visit {
	var out []visit
	n, L, rc2 := len(s.Atoms), s.Cell.L, rc*rc
	nc := int(L / rc)
	if nc <= 3 {
		for i := range s.Atoms {
			for j := range s.Atoms {
				d := s.Cell.MinImage(s.Atoms[i].Position, s.Atoms[j].Position)
				if r2 := d.Norm2(); i != j && r2 < rc2 {
					out = append(out, visit{i, j, d, r2})
				}
			}
		}
		return out
	}
	heads := make([]int, nc*nc*nc)
	for i := range heads {
		heads[i] = -1
	}
	next := make([]int, n)
	wrapped := make([]geom.Vec3, n)
	cell := func(w geom.Vec3) (int, int, int) {
		return minInt(int(w.X/L*float64(nc)), nc-1), minInt(int(w.Y/L*float64(nc)), nc-1), minInt(int(w.Z/L*float64(nc)), nc-1)
	}
	for i := range s.Atoms {
		wrapped[i] = s.Cell.Wrap(s.Atoms[i].Position)
		cx, cy, cz := cell(wrapped[i])
		c := (cx*nc+cy)*nc + cz
		next[i], heads[c] = heads[c], i
	}
	for i, pi := range wrapped {
		cx, cy, cz := cell(pi)
		for dx := -1; dx <= 1; dx++ {
			ccx, sx := wrapShift(cx+dx, nc, L)
			for dy := -1; dy <= 1; dy++ {
				ccy, sy := wrapShift(cy+dy, nc, L)
				for dz := -1; dz <= 1; dz++ {
					ccz, sz := wrapShift(cz+dz, nc, L)
					for j := heads[(ccx*nc+ccy)*nc+ccz]; j >= 0; j = next[j] {
						ddx := wrapped[j].X + sx - pi.X
						ddy := wrapped[j].Y + sy - pi.Y
						ddz := wrapped[j].Z + sz - pi.Z
						if r2 := ddx*ddx + ddy*ddy + ddz*ddz; j != i && r2 < rc2 {
							out = append(out, visit{i, j, geom.Vec3{X: ddx, Y: ddy, Z: ddz}, r2})
						}
					}
				}
			}
		}
	}
	return out
}

// TestVisitPairsKeepsOrderAndPairs pins the traversal's contract: the
// same pairs, in the same order, with the same bits as the reference
// scan, so skipping far cells may drop nothing — with atoms scattered
// outside the primary cell and planted exactly on cell faces and box
// edges, where the face-gap bound is tightest.
func TestVisitPairsKeepsOrderAndPairs(t *testing.T) {
	const L = 30.0
	for _, rc := range []float64{5, 6.1, 7.4, 9.9, 12} { // 6, 4, 4, 3 (all pairs), 2 cells per axis
		rng := rand.New(rand.NewSource(int64(rc * 10)))
		s := &System{Cell: geom.Cell{L: L}}
		for i := 0; i < 300; i++ {
			s.Atoms = append(s.Atoms, Atom{Species: Oxygen, Position: geom.Vec3{
				X: (rng.Float64()*3 - 1) * L, Y: (rng.Float64()*3 - 1) * L, Z: (rng.Float64()*3 - 1) * L}})
		}
		a := L / float64(int(L/rc))
		for _, x := range []float64{0, a, 2 * a, math.Nextafter(a, 0), math.Nextafter(L, 0), L, -1e-300, L - rc, a + rc} {
			for _, y := range []float64{0, 2 * a, math.Nextafter(2*a, L)} {
				s.Atoms = append(s.Atoms, Atom{Species: Oxygen, Position: geom.Vec3{X: x, Y: y, Z: rng.Float64() * L}})
			}
		}
		want := referencePairs(s, rc)
		k := 0
		VisitPairs(s, rc, func(i, j int, d geom.Vec3, r2 float64) {
			if k < len(want) && (want[k] != visit{i, j, d, r2}) {
				t.Fatalf("rc %g: visit %d is %v, reference %v", rc, k, visit{i, j, d, r2}, want[k])
			}
			k++
		})
		if k != len(want) || k == 0 {
			t.Fatalf("rc %g: %d pairs visited, reference has %d", rc, k, len(want))
		}
	}
}
