package qio

import (
	"bytes"
	"fmt"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/perf"
)

// Versioned binary checkpoint format for restartable trajectories (§4.2:
// long production runs are only sustainable with aggregated checkpoint
// I/O). A checkpoint file is the shared envelope of frame.go (DESIGN.md
// "Files on disk")
//
//	magic "LDCQMDCK" | version uint32 | sections | crc32
//
// where each section is a uvarint byte length followed by its body:
// first the header (cell, step counter, accumulated trajectory state,
// species table), then one atom section per spatial domain (global index,
// species id, position, velocity and — when present — force per atom),
// then the density section (the converged SCF density compressed
// losslessly with the Hilbert-curve field codec), and — only when header
// flag 1<<3 is set — the history section: the per-domain ρα histories
// behind the LDC boundary potential (domain count, local grid edge, then
// per domain a kind byte, 0 = none (vacuum) or 1 = present, and a
// present history's field compressed like the density). The trailing
// CRC-32 (IEEE) covers every preceding byte, so truncation and
// corruption are detected before any state is restored.
//
// Format policy: CheckpointVersion is bumped on any breaking layout
// change and readers reject versions they do not know — a restart must
// never silently misinterpret trajectory state. An optional section
// added behind a new flag bit is not a breaking change: a file without
// the bit is byte for byte what the earlier writer made. Readers reject
// flag bits they do not know, so an older build refuses a file whose
// extra state it would drop.

// CheckpointVersion is the current format version.
const CheckpointVersion = 1

// checkpointMagic opens every checkpoint file.
const checkpointMagic = "LDCQMDCK"

var checkpointFormat = Format{Magic: checkpointMagic, Version: CheckpointVersion, Name: "qio: checkpoint"}

// Header flags of a checkpoint and of a delta checkpoint.
const (
	ckFlagForces      = 1 << 0 // the file carries forces
	ckFlagDensity     = 1 << 1 // the file carries a density
	ckFlagDensityFull = 1 << 2 // delta only: density stored full (no usable base density)
	ckFlagHistory     = 1 << 3 // the file carries the per-domain ρα histories
)

// Kinds of one domain's entry in the history section.
const (
	histNone  = 0 // no history (a vacuum domain)
	histFull  = 1 // CompressField at the history edge
	histDelta = 2 // delta only: CompressFieldDelta against the base's entry
)

var (
	phCheckpointWrite = perf.GetPhase("qio/checkpoint-write")
	phCheckpointRead  = perf.GetPhase("qio/checkpoint-read")
)

// Checkpoint is the complete restartable state of a trajectory: the
// atomic configuration with its last force evaluation (so the integrator
// can be re-primed exactly), the converged density grid (the SCF warm
// start), and the accumulated per-step trajectory record.
type Checkpoint struct {
	Step  int     // completed MD steps
	DtFs  float64 // time step (fs)
	CellL float64 // periodic cell edge (Bohr)

	Symbols []string // species table
	Spec    []uint8  // per-atom index into Symbols
	Pos     []geom.Vec3
	Vel     []geom.Vec3
	Force   []geom.Vec3 // last evaluated forces (nil = re-evaluate on resume)
	Energy  float64     // potential energy of the last force evaluation

	GridN int       // density grid points per axis (0 = no density)
	Rho   []float64 // converged density, z fastest (len GridN³)

	// ρα boundary-potential histories of the last force evaluation, one
	// per DC domain in domain-index order (nil = vacuum domain), each on
	// the domain's local grid of HistN³ points, z fastest. No entries =
	// none carried; the next evaluation re-seeds them from Rho.
	HistN int
	Hist  [][]float64

	// Accumulated QMD trajectory state.
	SCFIterations int
	Energies      []float64
	Temperatures  []float64
}

// CheckpointFromSystem captures the configuration (species table,
// positions, velocities) of sys. The caller fills in the trajectory
// fields (Step, Force, Energy, density, accumulated record).
func CheckpointFromSystem(sys *atoms.System) (*Checkpoint, error) {
	n := sys.NumAtoms()
	ck := &Checkpoint{
		CellL: sys.Cell.L,
		Spec:  make([]uint8, n),
		Pos:   make([]geom.Vec3, n),
		Vel:   make([]geom.Vec3, n),
	}
	id := map[*atoms.Species]uint8{}
	for i, a := range sys.Atoms {
		s, ok := id[a.Species]
		if !ok {
			if len(ck.Symbols) >= 255 {
				return nil, fmt.Errorf("qio: checkpoint: too many species")
			}
			s = uint8(len(ck.Symbols))
			id[a.Species] = s
			ck.Symbols = append(ck.Symbols, a.Species.Symbol)
		}
		ck.Spec[i] = s
		ck.Pos[i] = a.Position
		ck.Vel[i] = a.Velocity
	}
	return ck, nil
}

// RestoreSystem rebuilds the atomic configuration, resolving species by
// symbol against the predefined table.
func (ck *Checkpoint) RestoreSystem() (*atoms.System, error) {
	species := make([]*atoms.Species, len(ck.Symbols))
	for i, sym := range ck.Symbols {
		sp := atoms.SpeciesBySymbol(sym)
		if sp == nil {
			return nil, fmt.Errorf("qio: checkpoint: unknown species %q", sym)
		}
		species[i] = sp
	}
	sys := &atoms.System{Cell: geom.Cell{L: ck.CellL}, Atoms: make([]atoms.Atom, len(ck.Pos))}
	for i := range ck.Pos {
		if int(ck.Spec[i]) >= len(species) {
			return nil, fmt.Errorf("qio: checkpoint: atom %d species id %d out of range", i, ck.Spec[i])
		}
		sys.Atoms[i] = atoms.Atom{Species: species[ck.Spec[i]], Position: ck.Pos[i], Velocity: ck.Vel[i]}
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("qio: checkpoint: %w", err)
	}
	return sys, nil
}

// CheckpointWriteOptions shapes the layout of a full checkpoint.
type CheckpointWriteOptions struct {
	// DomainsPerAxis partitions atoms into per-domain atom sections
	// (default 1: a single section).
	DomainsPerAxis int
}

// checkShape rejects a checkpoint whose arrays disagree with each other —
// the validation full and delta encodes share.
func (ck *Checkpoint) checkShape(f Format) error {
	n := len(ck.Pos)
	switch {
	case len(ck.Vel) != n || len(ck.Spec) != n:
		return fmt.Errorf("%s: inconsistent atom arrays (%d pos, %d vel, %d spec)", f.Name, n, len(ck.Vel), len(ck.Spec))
	case ck.Force != nil && len(ck.Force) != n:
		return fmt.Errorf("%s: %d forces for %d atoms", f.Name, len(ck.Force), n)
	case ck.GridN > 0 && len(ck.Rho) != ck.GridN*ck.GridN*ck.GridN:
		return fmt.Errorf("%s: density length %d is not %d³", f.Name, len(ck.Rho), ck.GridN)
	case len(ck.Hist) > 0 && ck.HistN < 1:
		return fmt.Errorf("%s: %d histories with edge %d", f.Name, len(ck.Hist), ck.HistN)
	}
	for d, h := range ck.Hist {
		if h != nil && len(h) != ck.HistN*ck.HistN*ck.HistN {
			return fmt.Errorf("%s: domain %d history length %d is not %d³", f.Name, d, len(h), ck.HistN)
		}
	}
	return nil
}

// putHistories appends ck's history section to file. A domain whose
// entry base holds at the same edge and domain count is stored as a delta
// against it; base is nil for a full checkpoint.
func (ck *Checkpoint) putHistories(file *Encoder, base *Checkpoint) error {
	var e Encoder
	e.Uvarint(uint64(len(ck.Hist)))
	e.Uvarint(uint64(ck.HistN))
	against := base != nil && base.HistN == ck.HistN && len(base.Hist) == len(ck.Hist)
	for d, h := range ck.Hist {
		var field []byte
		var err error
		switch {
		case h == nil:
			e.Byte(histNone)
			continue
		case against && base.Hist[d] != nil:
			e.Byte(histDelta)
			field, err = CompressFieldDelta(h, base.Hist[d], ck.HistN)
		default:
			e.Byte(histFull)
			field, err = CompressField(h, ck.HistN)
		}
		if err != nil {
			return err
		}
		e.Bytes(field)
	}
	file.Section(&e)
	return nil
}

// getHistories reads file's history section into ck; base is the delta
// base, or nil for a full checkpoint (which admits no delta entry).
func (ck *Checkpoint) getHistories(file *Decoder, base *Checkpoint) error {
	s := file.Section("history section")
	n := s.Count(1, "history")
	ck.HistN = int(s.Uvarint())
	if n == 0 && s.Err() == nil {
		s.Failf("history flag set with no histories")
	}
	ck.Hist = make([][]float64, n)
	for d := 0; d < n && s.Err() == nil; d++ {
		kind := s.Byte()
		if kind == histNone {
			continue
		}
		field := s.Bytes("history field")
		var err error
		switch {
		case s.Err() != nil:
		case kind == histFull:
			ck.Hist[d], err = DecompressField(field, ck.HistN)
		case kind != histDelta || base == nil:
			s.Failf("domain %d history kind %d invalid here", d, kind)
		case base.HistN != ck.HistN || len(base.Hist) != n || base.Hist[d] == nil:
			s.Failf("domain %d history is a delta against no base history of its shape", d)
		default:
			ck.Hist[d], err = DecompressFieldDelta(field, base.Hist[d], ck.HistN)
		}
		if err != nil {
			s.Failf("domain %d history: %v", d, err)
		}
	}
	return s.Done("history section")
}

// putAtom appends atom i's index-tagged record: global index, species
// id, position, velocity and — when the file carries them — force.
func (ck *Checkpoint) putAtom(e *Encoder, i int, forces bool) {
	e.Uvarint(uint64(i))
	e.Byte(ck.Spec[i])
	e.Vec3(ck.Pos[i])
	e.Vec3(ck.Vel[i])
	if forces {
		e.Vec3(ck.Force[i])
	}
}

// getAtoms reads one counted run of index-tagged records into ck's
// (already sized) arrays and returns the count. An index or species id
// out of range fails the decoder before anything is stored under it.
func (ck *Checkpoint) getAtoms(s *Decoder, what string, forces bool) int {
	n := s.Count(11, what)
	for a := 0; a < n && s.Err() == nil; a++ {
		i, spec := s.Uvarint(), s.Byte()
		switch {
		case s.Err() != nil:
		case i >= uint64(len(ck.Pos)):
			s.Failf("atom index %d out of range [0,%d)", i, len(ck.Pos))
		case int(spec) >= len(ck.Symbols):
			s.Failf("atom %d species id %d out of range", i, spec)
		default:
			ck.Spec[i] = spec
			ck.Pos[i] = s.Vec3()
			ck.Vel[i] = s.Vec3()
			if forces {
				ck.Force[i] = s.Vec3()
			}
		}
	}
	return n
}

// encode serializes the checkpoint: the preamble and header section,
// one atom section per spatial domain, the density section, the history
// section if any, and the CRC trailer. The file CRC is returned too — the
// identity a delta checkpoint binds to (see delta.go).
func (ck *Checkpoint) encode(domainsPerAxis int) ([]byte, uint32, error) {
	if err := ck.checkShape(checkpointFormat); err != nil {
		return nil, 0, err
	}
	if ck.CellL <= 0 {
		return nil, 0, fmt.Errorf("qio: checkpoint: non-positive cell %g", ck.CellL)
	}
	hasForces, hasDensity := ck.Force != nil, ck.GridN > 0
	nd := max(domainsPerAxis, 1)

	// Partition atoms into the per-domain sections by position.
	domainOf := func(p geom.Vec3) int {
		clamp := func(x float64) int { return min(max(int(x/ck.CellL*float64(nd)), 0), nd-1) }
		w := geom.Cell{L: ck.CellL}.Wrap(p)
		return (clamp(w.X)*nd+clamp(w.Y))*nd + clamp(w.Z)
	}
	members := make([][]int, nd*nd*nd)
	for i, p := range ck.Pos {
		d := domainOf(p)
		members[d] = append(members[d], i)
	}

	var h Encoder
	var flags uint64
	if hasForces {
		flags |= ckFlagForces
	}
	if hasDensity {
		flags |= ckFlagDensity
	}
	if len(ck.Hist) > 0 {
		flags |= ckFlagHistory
	}
	h.Uvarint(flags)
	h.F64(ck.CellL)
	h.F64(ck.DtFs)
	h.F64(ck.Energy)
	h.Uvarint(uint64(ck.Step))
	h.Uvarint(uint64(len(ck.Pos)))
	h.Uvarint(uint64(len(members)))
	h.Uvarint(uint64(ck.GridN))
	h.Uvarint(uint64(ck.SCFIterations))
	h.Floats(ck.Energies)
	h.Floats(ck.Temperatures)
	h.Strings(ck.Symbols)

	var density []byte
	if hasDensity {
		var err error
		if density, err = CompressField(ck.Rho, ck.GridN); err != nil {
			return nil, 0, err
		}
	}

	e := checkpointFormat.Begin()
	e.Grow(h.Len() + 84*len(ck.Pos) + 20*len(members) + len(density) + 32) // every record and length at its widest
	e.Section(&h)
	var s Encoder
	for _, m := range members {
		s.Reset()
		s.Uvarint(uint64(len(m)))
		for _, i := range m {
			ck.putAtom(&s, i, hasForces)
		}
		e.Section(&s)
	}
	e.Bytes(density)
	if len(ck.Hist) > 0 {
		if err := ck.putHistories(e, nil); err != nil {
			return nil, 0, err
		}
	}
	raw, crc := e.Seal()
	return raw, crc, nil
}

// WriteCheckpoint serializes ck and writes it crash-safely through an
// AtomicFile (DESIGN.md "Files on disk"), so a crash mid-write never
// leaves a truncated checkpoint under the final name. It returns the file
// size in bytes.
func WriteCheckpoint(path string, ck *Checkpoint, opts CheckpointWriteOptions) (int64, error) {
	_, n, err := WriteCheckpointBase(path, ck, opts)
	return n, err
}

// WriteCheckpointBase is WriteCheckpoint returning, besides the file
// size, the checkpoint bound to the CRC of its on-disk encoding: the base
// for subsequent delta writes (see delta.go).
func WriteCheckpointBase(path string, ck *Checkpoint, opts CheckpointWriteOptions) (base *DeltaBase, n int64, err error) {
	sp := phCheckpointWrite.Start()
	defer func() { sp.StopBytes(n) }()
	raw, crc, err := ck.encode(opts.DomainsPerAxis)
	if err != nil {
		return nil, 0, err
	}
	if n, err = WriteFileAtomic(path, bytes.NewReader(raw)); err != nil {
		return nil, n, err
	}
	return &DeltaBase{Ck: ck, CRC: crc}, n, nil
}

// ReadCheckpoint reads and validates a checkpoint file: magic, version,
// CRC, and every section bound are checked before state is returned, so
// truncated or corrupted files yield a descriptive error rather than a
// panic or silently wrong state.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	base, err := LoadCheckpointBase(path)
	if err != nil {
		return nil, err
	}
	return base.Ck, nil
}

// decodeCheckpoint parses checkpoint bytes (see ReadCheckpoint) and also
// returns the file CRC, for delta binding.
func decodeCheckpoint(raw []byte) (*Checkpoint, uint32, error) {
	d, crc, err := checkpointFormat.Open(raw)
	if err != nil {
		return nil, 0, err
	}
	h := d.Section("header section")
	flags := h.Uvarint()
	if unknown := flags &^ (ckFlagForces | ckFlagDensity | ckFlagHistory); unknown != 0 {
		h.Failf("unknown header flags %#x", unknown)
	}
	ck := &Checkpoint{}
	ck.CellL = h.F64()
	ck.DtFs = h.F64()
	ck.Energy = h.F64()
	ck.Step = int(h.Uvarint())
	natoms := h.Uvarint()
	ndom := h.Uvarint()
	ck.GridN = int(h.Uvarint())
	ck.SCFIterations = int(h.Uvarint())
	ck.Energies = h.AppendFloats(nil, "energy")
	ck.Temperatures = h.AppendFloats(nil, "temperature")
	ck.Symbols = h.Strings("species")
	// Atoms live in later sections; bound the count by the whole file
	// (each record needs ≥ 50 bytes) so a corrupt header cannot force a
	// huge allocation.
	if natoms > uint64(len(raw)/50) {
		h.Failf("atom count %d exceeds file size", natoms)
	}
	if err := h.Err(); err != nil {
		return nil, 0, err
	}

	hasForces := flags&ckFlagForces != 0
	ck.Spec = make([]uint8, natoms)
	ck.Pos = make([]geom.Vec3, natoms)
	ck.Vel = make([]geom.Vec3, natoms)
	if hasForces {
		ck.Force = make([]geom.Vec3, natoms)
	}
	seen := uint64(0)
	for dom := uint64(0); dom < ndom && d.Err() == nil; dom++ {
		s := d.Section("atom section")
		seen += uint64(ck.getAtoms(&s, "domain atom", hasForces))
	}
	if seen != natoms {
		d.Failf("atom sections hold %d atoms, header says %d", seen, natoms)
	}

	density := d.Bytes("density section")
	switch {
	case d.Err() != nil:
	case flags&ckFlagDensity == 0:
		ck.GridN = 0
	case ck.GridN <= 0:
		d.Failf("density flag set with grid size %d", ck.GridN)
	default:
		if ck.Rho, err = DecompressField(density, ck.GridN); err != nil {
			return nil, 0, err
		}
	}
	if flags&ckFlagHistory != 0 {
		if err := ck.getHistories(&d, nil); err != nil {
			return nil, 0, err
		}
	}
	if err := d.Done("checkpoint"); err != nil {
		return nil, 0, err
	}
	return ck, crc, nil
}
