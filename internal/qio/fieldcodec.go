package qio

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Lossless scalar-field codec along the 3-D Hilbert curve. Checkpoint
// density grids are smooth, so consecutive points along the curve carry
// nearly equal float64 values: XOR-ing each value's bits with its
// predecessor clears the sign, exponent, and leading mantissa bits, and
// varint-encoding the deltas stores only the surviving low bits. The
// scheme is exact (bit-for-bit) — a checkpoint must restore the SCF warm
// start without perturbation — unlike the quantizing atomic-coordinate
// codec in compress.go, which shares the same curve.

// orderCache memoizes the Hilbert traversal order per grid edge length.
var orderCache sync.Map // int -> []int32

// hilbertGridOrder returns the linear indices of an n³ grid (z fastest,
// as in grid.Grid) sorted by distance along the Hilbert curve of the
// smallest enclosing 2^bits cube. n need not be a power of two.
func hilbertGridOrder(n int) []int32 {
	if v, ok := orderCache.Load(n); ok {
		return v.([]int32)
	}
	bits := uint(1)
	for 1<<bits < n {
		bits++
	}
	type point struct {
		d   uint64
		idx int32
	}
	pts := make([]point, 0, n*n*n)
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				pts = append(pts, point{
					d:   hilbertIndex(bits, uint32(ix), uint32(iy), uint32(iz)),
					idx: int32((ix*n+iy)*n + iz),
				})
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].d < pts[j].d })
	order := make([]int32, len(pts))
	for i, p := range pts {
		order[i] = p.idx
	}
	orderCache.Store(n, order)
	return order
}

// CompressField encodes the n³ scalar field losslessly: values are
// visited in Hilbert order and the XOR delta of consecutive float64 bit
// patterns is varint-encoded.
func CompressField(data []float64, n int) ([]byte, error) {
	if n < 1 || n*n*n != len(data) {
		return nil, fmt.Errorf("qio: field length %d is not %d³", len(data), n)
	}
	order := hilbertGridOrder(n)
	buf := make([]byte, 0, len(data)*6)
	tmp := make([]byte, binary.MaxVarintLen64)
	var prev uint64
	for _, idx := range order {
		cur := math.Float64bits(data[idx])
		k := binary.PutUvarint(tmp, cur^prev)
		buf = append(buf, tmp[:k]...)
		prev = cur
	}
	return buf, nil
}

// CompressFieldDelta encodes an n³ field losslessly against a base field
// of the same shape. Points are visited in Hilbert order and XOR-ed
// pointwise with the base; the resulting stream — mostly zeros when the
// fields are close — is run-length encoded as alternating uvarint counts
// of identical points ("zero runs") and changed points, each changed run
// followed by its XOR-delta bit patterns (chained like CompressField so
// smooth changes stay cheap). Identical regions therefore cost ~one byte
// per run instead of one varint per point.
func CompressFieldDelta(data, base []float64, n int) ([]byte, error) {
	if n < 1 || n*n*n != len(data) {
		return nil, fmt.Errorf("qio: field length %d is not %d³", len(data), n)
	}
	if len(base) != len(data) {
		return nil, fmt.Errorf("qio: delta base length %d vs field %d", len(base), len(data))
	}
	order := hilbertGridOrder(n)
	buf := make([]byte, 0, 64)
	tmp := make([]byte, binary.MaxVarintLen64)
	put := func(v uint64) {
		k := binary.PutUvarint(tmp, v)
		buf = append(buf, tmp[:k]...)
	}
	for p := 0; p < len(order); {
		// Zero run: points bitwise equal to the base.
		zs := p
		for p < len(order) && math.Float64bits(data[order[p]]) == math.Float64bits(base[order[p]]) {
			p++
		}
		put(uint64(p - zs))
		if p == len(order) {
			break
		}
		// Diff run: changed points, XOR-chained within the run.
		ds := p
		for p < len(order) && math.Float64bits(data[order[p]]) != math.Float64bits(base[order[p]]) {
			p++
		}
		put(uint64(p - ds))
		var prev uint64
		for _, idx := range order[ds:p] {
			cur := math.Float64bits(data[idx]) ^ math.Float64bits(base[idx])
			put(cur ^ prev)
			prev = cur
		}
	}
	return buf, nil
}

// cubeFits reports whether 1 ≤ n and n³ ≤ limit, without overflowing on
// an n read from a file.
func cubeFits(n, limit int) bool { return n >= 1 && n <= limit/n/n }

// DecompressFieldDelta inverts CompressFieldDelta given the same base.
// Its work is bounded by len(base), which the caller already holds in
// memory, so unlike DecompressField it needs no bound against len(buf).
func DecompressFieldDelta(buf []byte, base []float64, n int) ([]float64, error) {
	if !cubeFits(n, len(base)) || n*n*n != len(base) {
		return nil, fmt.Errorf("qio: delta base length %d is not %d³", len(base), n)
	}
	order := hilbertGridOrder(n)
	data := make([]float64, len(base))
	get := func(what string) (uint64, error) {
		v, k := binary.Uvarint(buf)
		if k <= 0 {
			return 0, fmt.Errorf("qio: truncated field delta (%s)", what)
		}
		buf = buf[k:]
		return v, nil
	}
	for p := 0; p < len(order); {
		zr, err := get("zero run")
		if err != nil {
			return nil, err
		}
		if zr > uint64(len(order)-p) {
			return nil, fmt.Errorf("qio: field delta zero run %d exceeds remaining %d points", zr, len(order)-p)
		}
		for _, idx := range order[p : p+int(zr)] {
			data[idx] = base[idx]
		}
		p += int(zr)
		if p == len(order) {
			break
		}
		dr, err := get("diff run")
		if err != nil {
			return nil, err
		}
		if dr == 0 || dr > uint64(len(order)-p) {
			return nil, fmt.Errorf("qio: field delta diff run %d invalid with %d points remaining", dr, len(order)-p)
		}
		var prev uint64
		for _, idx := range order[p : p+int(dr)] {
			d, err := get("diff value")
			if err != nil {
				return nil, err
			}
			prev ^= d
			data[idx] = math.Float64frombits(math.Float64bits(base[idx]) ^ prev)
		}
		p += int(dr)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("qio: %d trailing bytes after field delta", len(buf))
	}
	return data, nil
}

// DecompressField inverts CompressField for an n³ field. n usually comes
// from a file header (a CRC is integrity, not authentication) and every
// point costs at least one byte, so an n whose cube exceeds len(buf) is
// rejected before it sizes the traversal order or the field.
func DecompressField(buf []byte, n int) ([]float64, error) {
	if !cubeFits(n, len(buf)) {
		return nil, fmt.Errorf("qio: field edge %d invalid for %d bytes of field data", n, len(buf))
	}
	order := hilbertGridOrder(n)
	data := make([]float64, n*n*n)
	var prev uint64
	for _, idx := range order {
		delta, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, fmt.Errorf("qio: truncated field data at point %d of %d", idx, n*n*n)
		}
		buf = buf[k:]
		prev ^= delta
		data[idx] = math.Float64frombits(prev)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("qio: %d trailing bytes after field data", len(buf))
	}
	return data, nil
}
