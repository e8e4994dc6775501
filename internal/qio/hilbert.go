// Package qio implements the I/O layer of the paper's production runs:
// crash-safe restartable checkpoints, the cost model of collective
// (aggregated) file I/O with its optimal group size (§4.2 "Collective
// File I/O"), and the space-filling-curve-based compression of atomic
// coordinates (ref. [65]).
package qio

// hilbert3D converts between a 3-D lattice coordinate (x, y, z), each in
// [0, 2^bits), and its distance along the 3-D Hilbert curve, using
// Skilling's transposed-Gray-code algorithm.

// hilbertIndex returns the curve distance of (x, y, z) with the given
// bits per axis.
func hilbertIndex(bits uint, x, y, z uint32) uint64 {
	v := [3]uint32{x, y, z}
	// Inverse undo of Skilling's transform.
	m := uint32(1) << (bits - 1)
	// Inverse undo excess work.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < 3; i++ {
			if v[i]&q != 0 {
				v[0] ^= p // invert
			} else {
				t := (v[0] ^ v[i]) & p
				v[0] ^= t
				v[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < 3; i++ {
		v[i] ^= v[i-1]
	}
	t := uint32(0)
	for q := m; q > 1; q >>= 1 {
		if v[2]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < 3; i++ {
		v[i] ^= t
	}
	// Interleave the transposed bits into a single index.
	var d uint64
	for b := int(bits) - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			d = (d << 1) | uint64((v[i]>>uint(b))&1)
		}
	}
	return d
}
