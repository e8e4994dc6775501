package cache

import (
	"fmt"

	"ldcdft/internal/geom"
	"ldcdft/internal/qio"
)

// On-disk warm-start entry format. One file per cached structure:
//
//	magic "LDCWSCE1" | version uint32 | header section | density section | crc32
//
// Envelope, length-prefixed sections and wire primitives are qio's (its
// frame.go; DESIGN.md "Files on disk"). The header carries the
// configuration tag, cell, species table, per-atom positions and forces,
// the converged energy and the SCF iteration count the solve cost; the
// density section holds the converged density compressed with
// the Hilbert-curve XOR-delta field codec (exact — a warm start seeded
// from a cache entry must match one seeded from the live density
// bit-for-bit). The trailing CRC-32 (IEEE) covers every preceding byte,
// so a truncated or corrupted entry is rejected (and evicted) instead of
// poisoning a solve.

// entryVersion is the current entry format version; readers reject
// versions they do not know.
const entryVersion = 1

const entryMagic = "LDCWSCE1"

var entryFormat = qio.Format{Magic: entryMagic, Version: entryVersion, Name: "cache"}

// entryExt is the filename extension of cache entries.
const entryExt = ".wse"

// entryData is the decoded content of one cache entry file.
type entryData struct {
	CfgTag        string
	CellL         float64
	EnergyHa      float64
	SCFIterations int

	Symbols []string // species table
	Spec    []uint8  // per-atom index into Symbols
	Pos     []geom.Vec3
	Force   []geom.Vec3

	GridN int
	Rho   []float64 // nil when decoded with withRho=false
}

// encodeEntry serializes d into the on-disk entry layout.
func encodeEntry(d *entryData) ([]byte, error) {
	n := len(d.Pos)
	if len(d.Spec) != n || len(d.Force) != n {
		return nil, fmt.Errorf("cache: inconsistent atom arrays (%d pos, %d spec, %d force)",
			n, len(d.Spec), len(d.Force))
	}
	if d.GridN <= 0 || len(d.Rho) != d.GridN*d.GridN*d.GridN {
		return nil, fmt.Errorf("cache: density length %d is not %d³", len(d.Rho), d.GridN)
	}
	if d.CellL <= 0 {
		return nil, fmt.Errorf("cache: non-positive cell %g", d.CellL)
	}

	var h qio.Encoder
	h.Bytes([]byte(d.CfgTag))
	h.F64(d.CellL)
	h.F64(d.EnergyHa)
	h.Uvarint(uint64(d.SCFIterations))
	h.Strings(d.Symbols)
	h.Uvarint(uint64(n))
	for i := 0; i < n; i++ {
		if int(d.Spec[i]) >= len(d.Symbols) {
			return nil, fmt.Errorf("cache: atom %d species id %d out of range", i, d.Spec[i])
		}
		h.Byte(d.Spec[i])
		h.Vec3(d.Pos[i])
		h.Vec3(d.Force[i])
	}
	h.Uvarint(uint64(d.GridN))

	density, err := qio.CompressField(d.Rho, d.GridN)
	if err != nil {
		return nil, err
	}
	e := entryFormat.Begin()
	e.Section(&h)
	e.Bytes(density)
	raw, _ := e.Seal()
	return raw, nil
}

// decodeEntry parses entry bytes. Magic, version, CRC, and every section
// bound are checked before state is returned. With withRho=false the
// density payload is left compressed (only its framing is validated) —
// the cheap index-rebuild path of Open.
func decodeEntry(raw []byte, withRho bool) (*entryData, error) {
	d, _, err := entryFormat.Open(raw)
	if err != nil {
		return nil, err
	}
	h := d.Section("header section")
	out := &entryData{}
	out.CfgTag = string(h.Bytes("config tag"))
	out.CellL = h.F64()
	out.EnergyHa = h.F64()
	out.SCFIterations = int(h.Uvarint())
	out.Symbols = h.Strings("species")
	// Each atom record is 1 + 2×24 bytes; Count bounds the count so a
	// corrupt header cannot force a huge allocation.
	natoms := h.Count(49, "atom")
	out.Spec = make([]uint8, natoms)
	out.Pos = make([]geom.Vec3, natoms)
	out.Force = make([]geom.Vec3, natoms)
	for i := 0; i < natoms && h.Err() == nil; i++ {
		out.Spec[i] = h.Byte()
		if int(out.Spec[i]) >= len(out.Symbols) {
			h.Failf("atom %d species id %d out of range", i, out.Spec[i])
		}
		out.Pos[i] = h.Vec3()
		out.Force[i] = h.Vec3()
	}
	out.GridN = int(h.Uvarint())
	if out.GridN <= 0 {
		h.Failf("invalid density grid %d", out.GridN)
	}
	if err := h.Done("header"); err != nil {
		return nil, err
	}

	density := d.Bytes("density section")
	if err := d.Done("entry"); err != nil {
		return nil, err
	}
	if withRho {
		if out.Rho, err = qio.DecompressField(density, out.GridN); err != nil {
			return nil, err
		}
	}
	return out, nil
}
