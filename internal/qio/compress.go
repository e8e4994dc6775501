package qio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"ldcdft/internal/atoms"
	"ldcdft/internal/perf"
)

var phCompress = perf.GetPhase("qio/compress")

// CompressedSnapshot is an atomic-coordinate snapshot compressed with the
// space-filling-curve scheme of ref. [65]: positions are quantized onto a
// 2^bits³ lattice, atoms are sorted along the 3-D Hilbert curve, and the
// (monotone) curve indices are delta-encoded as varints. Spatial locality
// makes consecutive deltas small, so dense regions cost only a few bits
// per atom. The original atom order is preserved through a permutation
// (also varint-encoded), and species through a compact id table.
type CompressedSnapshot struct {
	Bits  uint
	CellL float64
	Data  []byte
	N     int
}

// Compress encodes the system's positions and species.
func Compress(sys *atoms.System, bits uint) (*CompressedSnapshot, error) {
	if bits < 1 || bits > 20 {
		return nil, fmt.Errorf("qio: bits %d out of range [1, 20]", bits)
	}
	n := sys.NumAtoms()
	// Throughput is reported against the raw (uncompressed) volume.
	defer phCompress.Start().StopBytes(int64(n) * 24)
	scale := float64(uint64(1)<<bits) / sys.Cell.L
	type rec struct {
		d    uint64
		orig int
		spec uint8
	}
	// Species table.
	specID := map[*atoms.Species]uint8{}
	var specList []*atoms.Species
	recs := make([]rec, n)
	mask := uint32(1)<<bits - 1
	for i, a := range sys.Atoms {
		p := sys.Cell.Wrap(a.Position)
		x := uint32(p.X*scale) & mask
		y := uint32(p.Y*scale) & mask
		z := uint32(p.Z*scale) & mask
		id, ok := specID[a.Species]
		if !ok {
			if len(specList) >= 255 {
				return nil, errors.New("qio: too many species")
			}
			id = uint8(len(specList))
			specID[a.Species] = id
			specList = append(specList, a.Species)
		}
		recs[i] = rec{d: hilbertIndex(bits, x, y, z), orig: i, spec: id}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].d < recs[j].d })

	buf := make([]byte, 0, n*4)
	tmp := make([]byte, binary.MaxVarintLen64)
	put := func(v uint64) {
		k := binary.PutUvarint(tmp, v)
		buf = append(buf, tmp[:k]...)
	}
	put(uint64(n))
	put(uint64(len(specList)))
	for _, sp := range specList {
		put(uint64(len(sp.Symbol)))
		buf = append(buf, sp.Symbol...)
	}
	var prev uint64
	for _, r := range recs {
		put(r.d - prev) // monotone → non-negative deltas
		prev = r.d
		put(uint64(r.orig))
		buf = append(buf, r.spec)
	}
	return &CompressedSnapshot{Bits: bits, CellL: sys.Cell.L, Data: buf, N: n}, nil
}

// RawBytes returns the uncompressed size (3 float64 per atom).
func (c *CompressedSnapshot) RawBytes() int { return c.N * 24 }

// Ratio returns raw/compressed — the compression factor. The paper notes
// the ratio is modest for small runs (§4.2) and grows with density and
// atom count.
func (c *CompressedSnapshot) Ratio() float64 {
	if len(c.Data) == 0 {
		return 0
	}
	return float64(c.RawBytes()) / float64(len(c.Data))
}
