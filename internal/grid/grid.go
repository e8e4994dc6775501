// Package grid implements periodic real-space grids, scalar fields, and
// the divide-and-conquer domain geometry of Fig. 1 of the paper: the
// space Ω is a union of non-overlapping cores Ω0α, each surrounded by a
// buffer layer Γα of thickness b forming an extended domain Ωα, and
// domain support functions pα forming a partition of unity Σα pα = 1.
package grid

import (
	"fmt"
)

// Grid is a uniform N³-point sampling of a periodic cubic cell of side L
// (Bohr). Values are stored row-major with z fastest: i = (ix*N+iy)*N+iz.
type Grid struct {
	N int     // points per axis
	L float64 // cell edge (Bohr)
}

// New returns a grid with n points per axis over a cell of side l.
func New(n int, l float64) Grid {
	if n < 1 || l <= 0 {
		panic(fmt.Sprintf("grid: invalid grid %d points, L=%g", n, l))
	}
	return Grid{N: n, L: l}
}

// Size returns the total number of grid points N³.
func (g Grid) Size() int { return g.N * g.N * g.N }

// H returns the grid spacing L/N.
func (g Grid) H() float64 { return g.L / float64(g.N) }

// DV returns the volume element (L/N)³.
func (g Grid) DV() float64 { h := g.H(); return h * h * h }

// Index converts (ix, iy, iz) to a linear index; coordinates are wrapped
// periodically.
func (g Grid) Index(ix, iy, iz int) int {
	ix = wrapInt(ix, g.N)
	iy = wrapInt(iy, g.N)
	iz = wrapInt(iz, g.N)
	return (ix*g.N+iy)*g.N + iz
}

func wrapInt(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Field is a real scalar field sampled on a Grid.
type Field struct {
	Grid Grid
	Data []float64
}

// NewField allocates a zero field on g.
func NewField(g Grid) *Field {
	return &Field{Grid: g, Data: make([]float64, g.Size())}
}

// Clone deep-copies the field.
func (f *Field) Clone() *Field {
	out := NewField(f.Grid)
	copy(out.Data, f.Data)
	return out
}

// Integral returns ∫ f dV on the grid.
func (f *Field) Integral() float64 {
	var s float64
	for _, v := range f.Data {
		s += v
	}
	return s * f.Grid.DV()
}

// Mean returns the mean value of the field.
func (f *Field) Mean() float64 {
	var s float64
	for _, v := range f.Data {
		s += v
	}
	return s / float64(len(f.Data))
}
