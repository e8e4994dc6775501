package qio

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
)

// Decompress and hilbertCoords invert Compress and hilbertIndex: the
// oracles of the round-trip tests below.

// Decompress reconstructs positions (quantized to the lattice) and
// species symbols in the ORIGINAL atom order.
func (c *CompressedSnapshot) Decompress() (positions []geom.Vec3, symbols []string, err error) {
	buf := c.Data
	get := func() (uint64, error) {
		v, k := binary.Uvarint(buf)
		if k <= 0 {
			return 0, errors.New("qio: corrupt snapshot")
		}
		buf = buf[k:]
		return v, nil
	}
	n64, err := get()
	if err != nil {
		return nil, nil, err
	}
	n := int(n64)
	ns, err := get()
	if err != nil {
		return nil, nil, err
	}
	specs := make([]string, ns)
	for i := range specs {
		l, err := get()
		if err != nil {
			return nil, nil, err
		}
		if uint64(len(buf)) < l {
			return nil, nil, errors.New("qio: corrupt species table")
		}
		specs[i] = string(buf[:l])
		buf = buf[l:]
	}
	positions = make([]geom.Vec3, n)
	symbols = make([]string, n)
	inv := c.CellL / float64(uint64(1)<<c.Bits)
	var d uint64
	for i := 0; i < n; i++ {
		delta, err := get()
		if err != nil {
			return nil, nil, err
		}
		d += delta
		orig, err := get()
		if err != nil {
			return nil, nil, err
		}
		if len(buf) < 1 {
			return nil, nil, errors.New("qio: truncated snapshot")
		}
		spec := buf[0]
		buf = buf[1:]
		if int(spec) >= len(specs) || orig >= uint64(n) {
			return nil, nil, errors.New("qio: corrupt record")
		}
		x, y, z := hilbertCoords(c.Bits, d)
		positions[orig] = geom.Vec3{
			X: (float64(x) + 0.5) * inv,
			Y: (float64(y) + 0.5) * inv,
			Z: (float64(z) + 0.5) * inv,
		}
		symbols[orig] = specs[spec]
	}
	return positions, symbols, nil
}

// hilbertCoords inverts hilbertIndex.
func hilbertCoords(bits uint, d uint64) (x, y, z uint32) {
	var v [3]uint32
	// De-interleave.
	for b := int(bits) - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			shift := uint(b*3 + (2 - i))
			v[i] = (v[i] << 1) | uint32((d>>shift)&1)
		}
	}
	// Gray decode by H ^ (H/2).
	t := v[2] >> 1
	for i := 2; i > 0; i-- {
		v[i] ^= v[i-1]
	}
	v[0] ^= t
	// Undo excess work.
	m := uint32(1) << (bits - 1)
	for q := uint32(2); q <= m; q <<= 1 {
		p := q - 1
		for i := 2; i >= 0; i-- {
			if v[i]&q != 0 {
				v[0] ^= p
			} else {
				tt := (v[0] ^ v[i]) & p
				v[0] ^= tt
				v[i] ^= tt
			}
		}
	}
	return v[0], v[1], v[2]
}

func TestHilbertRoundTrip(t *testing.T) {
	for _, bits := range []uint{1, 2, 4, 7} {
		n := uint32(1) << bits
		seen := map[uint64]bool{}
		for x := uint32(0); x < n; x++ {
			for y := uint32(0); y < n; y++ {
				for z := uint32(0); z < n; z++ {
					d := hilbertIndex(bits, x, y, z)
					if seen[d] {
						t.Fatalf("bits=%d: duplicate index %d", bits, d)
					}
					seen[d] = true
					gx, gy, gz := hilbertCoords(bits, d)
					if gx != x || gy != y || gz != z {
						t.Fatalf("bits=%d: roundtrip (%d,%d,%d) -> %d -> (%d,%d,%d)",
							bits, x, y, z, d, gx, gy, gz)
					}
				}
			}
		}
		if uint64(len(seen)) != uint64(n)*uint64(n)*uint64(n) {
			t.Fatalf("bits=%d: curve does not cover the lattice", bits)
		}
	}
}

func TestHilbertLocality(t *testing.T) {
	// Defining property of the curve: consecutive indices are adjacent
	// lattice cells (unit Manhattan distance).
	bits := uint(4)
	n := uint64(1) << (3 * bits)
	px, py, pz := hilbertCoords(bits, 0)
	for d := uint64(1); d < n; d++ {
		x, y, z := hilbertCoords(bits, d)
		dist := absDiff(x, px) + absDiff(y, py) + absDiff(z, pz)
		if dist != 1 {
			t.Fatalf("step %d -> %d jumps distance %d", d-1, d, dist)
		}
		px, py, pz = x, y, z
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestCompressRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sys := atoms.BuildSiC(2)
	snap, err := Compress(sys, 12)
	if err != nil {
		t.Fatal(err)
	}
	pos, symbols, err := snap.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != sys.NumAtoms() {
		t.Fatal("atom count mismatch")
	}
	// Quantization error bounded by lattice cell diagonal.
	cell := sys.Cell.L / float64(uint64(1)<<12)
	maxErr := cell * math.Sqrt(3)
	for i, a := range sys.Atoms {
		if d := sys.Cell.Distance(a.Position, pos[i]); d > maxErr {
			t.Fatalf("atom %d displaced %g > %g", i, d, maxErr)
		}
		if symbols[i] != a.Species.Symbol {
			t.Fatalf("atom %d species %q != %q", i, symbols[i], a.Species.Symbol)
		}
	}
	_ = rng
}

func TestCompressionBeatsRaw(t *testing.T) {
	// Dense crystalline system: Hilbert deltas are small, compression
	// ratio must exceed 2 at 12 bits/axis.
	sys := atoms.BuildSiC(4) // 512 atoms
	snap, err := Compress(sys, 12)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Ratio() < 2 {
		t.Fatalf("compression ratio %.2f too small (raw %d, packed %d)",
			snap.Ratio(), snap.RawBytes(), len(snap.Data))
	}
}

func TestCompressErrors(t *testing.T) {
	sys := atoms.BuildSiC(1)
	if _, err := Compress(sys, 0); err == nil {
		t.Fatal("bits=0 must fail")
	}
	if _, err := Compress(sys, 32); err == nil {
		t.Fatal("bits=32 must fail")
	}
	// Corrupt data.
	snap, _ := Compress(sys, 8)
	snap.Data = snap.Data[:3]
	if _, _, err := snap.Decompress(); err == nil {
		t.Fatal("corrupt snapshot must fail to decode")
	}
}

// Property: compression roundtrip preserves species multiset and count
// for random configurations.
func TestCompressProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := &atoms.System{Cell: geom.Cell{L: 10 + rng.Float64()*40}}
		n := 1 + rng.Intn(100)
		pool := []*atoms.Species{atoms.Hydrogen, atoms.Oxygen, atoms.Lithium, atoms.Aluminum}
		for i := 0; i < n; i++ {
			sys.Atoms = append(sys.Atoms, atoms.Atom{
				Species: pool[rng.Intn(len(pool))],
				Position: geom.Vec3{X: rng.Float64() * sys.Cell.L,
					Y: rng.Float64() * sys.Cell.L, Z: rng.Float64() * sys.Cell.L},
			})
		}
		snap, err := Compress(sys, 10)
		if err != nil {
			return false
		}
		_, symbols, err := snap.Decompress()
		if err != nil || len(symbols) != n {
			return false
		}
		for i, a := range sys.Atoms {
			if symbols[i] != a.Species.Symbol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIOModelOptimumNearPaper(t *testing.T) {
	// §4.2: the optimal I/O group size is 192 MPI processes on the full
	// 786,432-rank machine.
	m := DefaultIOModel()
	const ranks = 786432
	const checkpointBytes = 64e9
	opt := m.OptimalGroupSize(ranks, checkpointBytes)
	if opt < 96 || opt > 384 {
		t.Fatalf("optimal group size %d, paper reports ≈192", opt)
	}
	// U-shape: both extremes are worse.
	tOpt := m.WriteTime(ranks, opt, checkpointBytes)
	if m.WriteTime(ranks, 1, checkpointBytes) < tOpt*2 {
		t.Fatal("one-file-per-rank should be much slower")
	}
	if m.WriteTime(ranks, ranks, checkpointBytes) < tOpt*2 {
		t.Fatal("single-group I/O should be much slower")
	}
	// Production anchor: a 99 s write is a small fraction of a 12-hour
	// run (0.23%).
	w := m.WriteTime(ranks, 192, checkpointBytes)
	runSec := 12 * 3600.0
	if w/runSec > 0.01 {
		t.Fatalf("write fraction too large: %.3f%%", 100*w/runSec)
	}
}
