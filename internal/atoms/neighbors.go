package atoms

import (
	"math"

	"ldcdft/internal/geom"
)

// Neighbor is one entry of a neighbour list: atom index J at
// minimum-image distance R.
type Neighbor struct {
	J int
	R float64
}

// NeighborList holds, for every atom, its neighbours within a cutoff.
// It is built with the linked-cell method: O(N) construction, the same
// data-locality structure that underlies the paper's range-limited MD
// machinery (refs. [26, 79]).
type NeighborList struct {
	Lists [][]Neighbor
}

// BuildNeighborList constructs the list for all atoms within cutoff rc.
func BuildNeighborList(s *System, rc float64) *NeighborList {
	nl := &NeighborList{Lists: make([][]Neighbor, len(s.Atoms))}
	// A row starts at the size a uniform density would fill.
	mean := int(float64(len(s.Atoms))*4*math.Pi/3*rc*rc*rc/s.Cell.Volume()) + 1
	VisitPairs(s, rc, func(i, j int, _ geom.Vec3, r2 float64) {
		if nl.Lists[i] == nil {
			nl.Lists[i] = make([]Neighbor, 0, mean)
		}
		nl.Lists[i] = append(nl.Lists[i], Neighbor{J: j, R: math.Sqrt(r2)})
	})
	return nl
}

// VisitPairs is the tree's one linked-cell traversal: it calls visit for
// every ordered pair i ≠ j closer than rc, with the displacement d from i
// to j and r2 = |d|². Atoms are visited with i ascending; the neighbours
// of one i come in a fixed order (the 27 surrounding cells by dx, dy, dz,
// each cell's chain from the highest index down; j ascending in the
// all-pairs fallback for boxes under four cells a side). That order is
// part of the contract: the reactive field sums forces in it, and its
// trajectories are pinned bit for bit (DESIGN.md, "The reactive engine").
func VisitPairs(s *System, rc float64, visit func(i, j int, d geom.Vec3, r2 float64)) {
	n := len(s.Atoms)
	L := s.Cell.L
	rc2 := rc * rc
	// Number of linked cells per axis: cells no smaller than the cutoff.
	nc := int(L / rc)
	if nc <= 3 {
		// A 27-cell stencil would see a cell twice: all pairs instead.
		for i := range s.Atoms {
			for j := range s.Atoms {
				if i == j {
					continue
				}
				d := s.Cell.MinImage(s.Atoms[i].Position, s.Atoms[j].Position)
				if r2 := d.Norm2(); r2 < rc2 {
					visit(i, j, d, r2)
				}
			}
		}
		return
	}
	// Pre-wrap positions once; inside the cell loop the periodic image
	// offset is known from the neighbour-cell wrap, so displacements need
	// no minimum-image search.
	wrapped := make([]geom.Vec3, n)
	heads := make([]int, nc*nc*nc)
	for c := range heads {
		heads[c] = -1
	}
	next := make([]int, n)
	for i := range s.Atoms {
		wrapped[i] = s.Cell.Wrap(s.Atoms[i].Position)
		cx, cy, cz := cellOf(wrapped[i], L, nc)
		c := (cx*nc+cy)*nc + cz
		next[i] = heads[c]
		heads[c] = i
	}
	// A neighbour cell whose nearest point is further than rc holds no
	// partner of this atom and is skipped whole: with cells barely larger
	// than rc that is most corner cells. The bound is the per-axis gap to
	// the cell's face; 1e-9 relative slack covers its rounding.
	a := L / float64(nc)
	far2 := rc2 * (1 + 1e-9)
	for i, pi := range wrapped {
		cx, cy, cz := cellOf(pi, L, nc)
		gx2, gy2, gz2 := faceGaps2(pi.X, cx, a), faceGaps2(pi.Y, cy, a), faceGaps2(pi.Z, cz, a)
		for dx := -1; dx <= 1; dx++ {
			ccx, sx := wrapShift(cx+dx, nc, L)
			for dy := -1; dy <= 1; dy++ {
				ccy, sy := wrapShift(cy+dy, nc, L)
				for dz := -1; dz <= 1; dz++ {
					ccz, sz := wrapShift(cz+dz, nc, L)
					if gx2[dx+1]+gy2[dy+1]+gz2[dz+1] > far2 {
						continue
					}
					for j := heads[(ccx*nc+ccy)*nc+ccz]; j >= 0; j = next[j] {
						if j == i {
							continue
						}
						ddx := wrapped[j].X + sx - pi.X
						ddy := wrapped[j].Y + sy - pi.Y
						ddz := wrapped[j].Z + sz - pi.Z
						r2 := ddx*ddx + ddy*ddy + ddz*ddz
						if r2 < rc2 {
							visit(i, j, geom.Vec3{X: ddx, Y: ddy, Z: ddz}, r2)
						}
					}
				}
			}
		}
	}
}

// faceGaps2 returns, for coordinate x in cell c of edge a, the squared
// distance to the cell below, to its own cell (0) and to the cell above.
func faceGaps2(x float64, c int, a float64) [3]float64 {
	lo, hi := max(0, x-float64(c)*a), max(0, float64(c+1)*a-x)
	return [3]float64{lo * lo, 0, hi * hi}
}

// cellOf returns the cell coordinates of a wrapped position; rounding at
// the upper face is clamped into the last cell.
func cellOf(w geom.Vec3, l float64, nc int) (cx, cy, cz int) {
	return minInt(int(w.X/l*float64(nc)), nc-1),
		minInt(int(w.Y/l*float64(nc)), nc-1),
		minInt(int(w.Z/l*float64(nc)), nc-1)
}

// wrapShift wraps a cell index and returns the corresponding periodic
// position offset.
func wrapShift(i, n int, l float64) (int, float64) {
	if i < 0 {
		return i + n, -l
	}
	if i >= n {
		return i - n, l
	}
	return i, 0
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
