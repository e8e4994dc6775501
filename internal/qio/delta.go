package qio

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"

	"ldcdft/internal/geom"
)

// Incremental (delta) checkpoints. A production QMD trajectory
// checkpoints frequently, but between two nearby checkpoints most of the
// heavy state is nearly identical: the density field differs in the low
// mantissa bits, the per-step record only grows, and — when a region of
// the system is frozen or served from the SCF cache — many atom records
// are bit-for-bit unchanged. A delta checkpoint therefore stores, against
// a full base checkpoint:
//
//   - only the atom records that changed (index-tagged),
//   - only the appended tail of the per-step energy/temperature record,
//   - the density as a sparse run-length XOR stream against the base
//     density (identical points cost ~zero bytes),
//   - when the checkpoint carries them (header flag 1<<3), the per-domain
//     ρα histories, each the same kind of stream against the base's
//     history of that domain, or stored full when the base has none of
//     that shape,
//
// so its cost is O(changed state), not O(system). The file layout is
//
//	magic "LDCQMDDL" | version uint32 | baseCRC uint32 | sections | crc32
//
// where baseCRC is the CRC-32 trailer of the base checkpoint FILE: a
// delta can only be applied to the exact base bytes it was computed
// against — a refreshed or corrupted base makes the delta detectably
// stale rather than silently wrong. Envelope and atomic commit are the
// ones full checkpoints use (frame.go; DESIGN.md "Files on disk").

// DeltaCheckpointVersion is the current delta format version.
const DeltaCheckpointVersion = 1

// deltaMagic opens every delta checkpoint file.
const deltaMagic = "LDCQMDDL"

var deltaFormat = Format{Magic: deltaMagic, Version: DeltaCheckpointVersion, Name: "qio: delta checkpoint"}

// ErrDeltaIncompatible reports a checkpoint whose shape diverged from the
// base (atom count, species table, cell, or grid) — callers should write
// a fresh full base instead of a delta.
var ErrDeltaIncompatible = errors.New("qio: checkpoint no longer matches the delta base")

// ErrDeltaTooLarge reports a delta that encoded to at least the size
// limit its writer was given; nothing was written.
var ErrDeltaTooLarge = errors.New("qio: delta checkpoint not below the size limit")

// ErrDeltaStale reports a delta file bound (via baseCRC) to a different
// base checkpoint than the one provided.
var ErrDeltaStale = errors.New("qio: delta checkpoint belongs to a different base")

// DeltaBase is a full checkpoint together with the CRC identity of its
// on-disk encoding — everything needed to write or apply deltas.
type DeltaBase struct {
	Ck  *Checkpoint
	CRC uint32
}

// LoadCheckpointBase reads a full checkpoint file as a delta base,
// capturing its file CRC for delta binding.
func LoadCheckpointBase(path string) (*DeltaBase, error) {
	sp := phCheckpointRead.Start()
	raw, err := os.ReadFile(path)
	sp.StopBytes(int64(len(raw)))
	if err != nil {
		return nil, fmt.Errorf("qio: checkpoint: %w", err)
	}
	ck, crc, err := decodeCheckpoint(raw)
	if err != nil {
		return nil, err
	}
	return &DeltaBase{Ck: ck, CRC: crc}, nil
}

// WriteCheckpointDelta writes ck as a delta against base, crash-safely,
// and returns the file size. ErrDeltaIncompatible is returned (before
// touching the file) when ck's shape diverged from the base — the caller
// should then write a fresh base with WriteCheckpointBase.
func WriteCheckpointDelta(path string, ck *Checkpoint, base *DeltaBase) (int64, error) {
	return WriteCheckpointDeltaBelow(path, ck, base, math.MaxInt64)
}

// WriteCheckpointDeltaBelow is WriteCheckpointDelta for a delta of fewer
// than limit bytes: one that encodes to limit bytes or more returns
// ErrDeltaTooLarge before touching the file, so a writer that would
// replace such a delta with a fresh base never makes it durable first.
func WriteCheckpointDeltaBelow(path string, ck *Checkpoint, base *DeltaBase, limit int64) (n int64, err error) {
	sp := phCheckpointWrite.Start()
	defer func() { sp.StopBytes(n) }()
	raw, err := encodeDelta(ck, base)
	switch {
	case err != nil:
		return 0, err
	case int64(len(raw)) >= limit:
		return 0, fmt.Errorf("%w: %d bytes, limit %d", ErrDeltaTooLarge, len(raw), limit)
	}
	return WriteFileAtomic(path, bytes.NewReader(raw))
}

func encodeDelta(ck *Checkpoint, base *DeltaBase) ([]byte, error) {
	b := base.Ck
	if err := ck.checkShape(deltaFormat); err != nil {
		return nil, err
	}
	switch n := len(ck.Pos); {
	case n != len(b.Pos):
		return nil, fmt.Errorf("%w: %d atoms vs base %d", ErrDeltaIncompatible, n, len(b.Pos))
	case ck.CellL != b.CellL:
		return nil, fmt.Errorf("%w: cell %g vs base %g", ErrDeltaIncompatible, ck.CellL, b.CellL)
	case !slices.Equal(ck.Symbols, b.Symbols):
		return nil, fmt.Errorf("%w: species table changed", ErrDeltaIncompatible)
	case ck.Step < b.Step:
		return nil, fmt.Errorf("%w: step %d behind base step %d", ErrDeltaIncompatible, ck.Step, b.Step)
	case len(ck.Energies) < len(b.Energies) || len(ck.Temperatures) < len(b.Temperatures):
		return nil, fmt.Errorf("%w: per-step record shrank", ErrDeltaIncompatible)
	}
	hasForces, hasDensity := ck.Force != nil, ck.GridN > 0

	var h Encoder
	var flags uint64
	if hasForces {
		flags |= ckFlagForces
	}
	baseDensityUsable := hasDensity && b.GridN == ck.GridN && len(b.Rho) == len(ck.Rho)
	if hasDensity {
		flags |= ckFlagDensity
		if !baseDensityUsable {
			flags |= ckFlagDensityFull
		}
	}
	if len(ck.Hist) > 0 {
		flags |= ckFlagHistory
	}
	h.Uvarint(flags)
	h.F64(ck.DtFs)
	h.F64(ck.Energy)
	h.Uvarint(uint64(ck.Step))
	h.Uvarint(uint64(ck.GridN))
	h.Uvarint(uint64(ck.SCFIterations))
	h.Floats(ck.Energies[len(b.Energies):])
	h.Floats(ck.Temperatures[len(b.Temperatures):])

	// Changed-atom section: an atom is written iff any of its record's
	// fields differ bitwise from the base (or its force cannot be taken
	// from the base).
	baseForceUsable := !hasForces || b.Force != nil
	var changed []int
	for i := range ck.Pos {
		same := ck.Spec[i] == b.Spec[i] && ck.Pos[i] == b.Pos[i] && ck.Vel[i] == b.Vel[i]
		if same && hasForces {
			same = baseForceUsable && ck.Force[i] == b.Force[i]
		}
		if !same {
			changed = append(changed, i)
		}
	}
	var atomSec Encoder
	atomSec.Uvarint(uint64(len(changed)))
	for _, i := range changed {
		ck.putAtom(&atomSec, i, hasForces)
	}

	var density []byte
	var err error
	switch {
	case baseDensityUsable:
		density, err = CompressFieldDelta(ck.Rho, b.Rho, ck.GridN)
	case hasDensity:
		density, err = CompressField(ck.Rho, ck.GridN)
	}
	if err != nil {
		return nil, err
	}

	e := deltaFormat.Begin()
	e.U32(base.CRC)
	e.Section(&h)
	e.Section(&atomSec)
	e.Bytes(density)
	if len(ck.Hist) > 0 {
		if err := ck.putHistories(e, b); err != nil {
			return nil, err
		}
	}
	raw, _ := e.Seal()
	return raw, nil
}

// ApplyDeltaIfPresent returns the newest restartable state reachable
// from base: the delta at path applied to it when one exists and is
// bound to this base, otherwise base.Ck unchanged. A missing delta file
// and a stale delta (written against a different — typically older —
// base) are normal after a base refresh and are silently ignored; a
// corrupt delta is an error, because restart state must never be
// silently wrong.
func ApplyDeltaIfPresent(base *DeltaBase, path string) (*Checkpoint, error) {
	ck, err := ReadCheckpointDelta(path, base)
	switch {
	case err == nil:
		return ck, nil
	case errors.Is(err, os.ErrNotExist), errors.Is(err, ErrDeltaStale):
		return base.Ck, nil
	default:
		return nil, err
	}
}

// ReadCheckpointDelta reads a delta checkpoint file and applies it to
// base, returning the reconstructed full checkpoint. The delta's CRC,
// base binding, and section bounds are validated first; ErrDeltaStale is
// returned when the delta was computed against different base bytes.
func ReadCheckpointDelta(path string, base *DeltaBase) (*Checkpoint, error) {
	sp := phCheckpointRead.Start()
	raw, err := os.ReadFile(path)
	sp.StopBytes(int64(len(raw)))
	if err != nil {
		return nil, fmt.Errorf("qio: delta checkpoint: %w", err)
	}
	return DecodeCheckpointDelta(raw, base)
}

// DecodeCheckpointDelta parses delta bytes and applies them to base.
func DecodeCheckpointDelta(raw []byte, base *DeltaBase) (*Checkpoint, error) {
	d, _, err := deltaFormat.Open(raw)
	if err != nil {
		return nil, err
	}
	if got := d.U32(); d.Err() == nil && got != base.CRC {
		return nil, fmt.Errorf("%w (delta bound to base CRC %08x, have %08x)", ErrDeltaStale, got, base.CRC)
	}
	b := base.Ck
	h := d.Section("header section")
	flags := h.Uvarint()
	if unknown := flags &^ (ckFlagForces | ckFlagDensity | ckFlagDensityFull | ckFlagHistory); unknown != 0 {
		h.Failf("unknown header flags %#x", unknown)
	}
	hasForces := flags&ckFlagForces != 0
	ck := &Checkpoint{
		CellL:   b.CellL,
		Symbols: slices.Clone(b.Symbols),
		Spec:    slices.Clone(b.Spec),
		Pos:     slices.Clone(b.Pos),
		Vel:     slices.Clone(b.Vel),
	}
	n := len(ck.Pos)
	if hasForces {
		ck.Force = make([]geom.Vec3, n)
		if len(b.Force) == n {
			copy(ck.Force, b.Force)
		}
	}
	ck.DtFs = h.F64()
	ck.Energy = h.F64()
	ck.Step = int(h.Uvarint())
	ck.GridN = int(h.Uvarint())
	ck.SCFIterations = int(h.Uvarint())
	ck.Energies = h.AppendFloats(slices.Clone(b.Energies), "appended energy")
	ck.Temperatures = h.AppendFloats(slices.Clone(b.Temperatures), "appended temperature")

	as := d.Section("atom section")
	ck.getAtoms(&as, "changed atom", hasForces)

	density := d.Bytes("density section")
	switch {
	case d.Err() != nil:
	case flags&ckFlagDensity == 0:
		ck.GridN = 0
	case ck.GridN <= 0:
		d.Failf("density flag set with grid size %d", ck.GridN)
	case flags&ckFlagDensityFull != 0:
		ck.Rho, err = DecompressField(density, ck.GridN)
	case len(b.Rho) != ck.GridN*ck.GridN*ck.GridN:
		err = fmt.Errorf("%w: base density length %d is not %d³", ErrDeltaStale, len(b.Rho), ck.GridN)
	default:
		ck.Rho, err = DecompressFieldDelta(density, b.Rho, ck.GridN)
	}
	if err != nil {
		return nil, err
	}
	if flags&ckFlagHistory != 0 {
		if err := ck.getHistories(&d, b); err != nil {
			return nil, err
		}
	}
	if err := d.Done("delta checkpoint"); err != nil {
		return nil, err
	}
	return ck, nil
}
