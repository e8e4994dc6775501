// Package geom provides 3-vector arithmetic and periodic-cell geometry
// shared by the atomistic and grid layers.
package geom

import "math"

// Vec3 is a point or displacement in 3-D space (atomic units).
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v − u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns v·u.
func (v Vec3) Dot(u Vec3) float64 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns |v|².
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Cell is a periodic cubic simulation cell of side L (Bohr).
type Cell struct{ L float64 }

// Wrap maps a position into the primary cell [0, L)³.
func (c Cell) Wrap(p Vec3) Vec3 {
	return Vec3{wrap1(p.X, c.L), wrap1(p.Y, c.L), wrap1(p.Z, c.L)}
}

func wrap1(x, l float64) float64 {
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

// MinImage returns the minimum-image displacement from a to b.
func (c Cell) MinImage(a, b Vec3) Vec3 {
	d := b.Sub(a)
	d.X = MinImage1(d.X, c.L)
	d.Y = MinImage1(d.Y, c.L)
	d.Z = MinImage1(d.Z, c.L)
	return d
}

// MinImage1 is one axis of MinImage: the component d of a displacement
// brought into [-l/2, l/2].
func MinImage1(d, l float64) float64 {
	// Branchy wrap: for displacements within a few cells (the common
	// case — positions are kept wrapped) this is much cheaper than
	// math.Round.
	for d > l/2 {
		d -= l
	}
	for d < -l/2 {
		d += l
	}
	return d
}

// Distance returns the minimum-image distance between a and b.
func (c Cell) Distance(a, b Vec3) float64 { return c.MinImage(a, b).Norm() }

// Volume returns L³.
func (c Cell) Volume() float64 { return c.L * c.L * c.L }
