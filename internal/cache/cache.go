// Package cache is a content-addressed SCF warm-start cache. Entries are
// keyed by a canonical structure hash — configuration tag, lattice, and
// atomic positions quantized to a tolerance — so the daemon turns its
// repeated workload (resubmissions, replayed trajectories) into skipped
// solves:
//
//   - An exact hit returns the stored energy, forces, and density without
//     entering the SCF loop at all.
//   - A near miss (same config/cell/species, every atom within NearTol of
//     a cached structure under minimum-image) returns the nearest cached
//     density as an SCF seed. The LDC force field does not ask for it:
//     without the per-domain ρα histories, which entries do not hold, the
//     seed saves no SCF iterations.
//
// Entries live one-per-file under a directory, written crash-safely and
// CRC-checked on read; total size is bounded by an LRU byte budget.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/perf"
	"ldcdft/internal/qio"
)

// Options configures a cache. The zero value of each field selects its
// default, so Options{Dir: d} is a usable configuration.
type Options struct {
	// Dir is the directory holding entry files. Required.
	Dir string

	// MaxBytes bounds the total size of entry files; least-recently-used
	// entries are evicted past it. 0 means 256 MiB.
	MaxBytes int64

	// NearTol (Bohr) is the maximum per-atom minimum-image displacement
	// at which a cached density still seeds a near-miss warm start.
	// 0 means 0.25 Bohr.
	NearTol float64
}

// Tier classifies a Lookup outcome.
type Tier int

const (
	// TierMiss: nothing usable cached.
	TierMiss Tier = iota
	// TierExact: stored result returned; no SCF needed.
	TierExact
	// TierNear: stored density returned as an SCF seed.
	TierNear
)

func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierNear:
		return "near"
	default:
		return "miss"
	}
}

// Result is the payload of a cache hit: the converged outcome of one
// SCF solve. On TierExact all fields are meaningful; on TierNear only
// Rho (the seed) and SCFIterations (what the cached solve cost, for
// savings accounting) are.
type Result struct {
	EnergyHa      float64
	Forces        []geom.Vec3
	SCFIterations int
	Rho           *grid.Field
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Hits      int64 // exact hits (SCF skipped)
	NearHits  int64 // near misses served a seed density
	Misses    int64
	Evictions int64
	Corrupt   int64 // entries rejected by CRC/decode and removed
	// SCFIterationsSaved accumulates iterations not run: the full stored
	// cost of every exact hit.
	SCFIterationsSaved int64

	Entries int
	Bytes   int64
}

// entry is the in-memory index record of one on-disk file.
type entry struct {
	key    string // canonical hash, also the filename stem
	family string // hash without positions, for near-neighbor search
	size   int64

	// Positions needed for near-miss distance checks without touching
	// disk.
	pos []geom.Vec3

	prev, next *entry // LRU list; head = most recent
}

// Cache is a content-addressed warm-start cache. All methods are safe
// for concurrent use.
type Cache struct {
	opts Options

	mu       sync.Mutex
	byKey    map[string]*entry
	byFamily map[string][]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	bytes    int64
	stats    Stats
}

// Open opens (creating if needed) the cache directory and rebuilds the
// index by scanning it. Entries that fail CRC or header validation are
// deleted and counted as corrupt; survivors enter the LRU in file
// modification-time order, oldest least recent.
func Open(opts Options) (*Cache, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("cache: no directory configured")
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 256 << 20
	}
	if opts.MaxBytes < 0 {
		return nil, fmt.Errorf("cache: negative byte budget %d", opts.MaxBytes)
	}
	if opts.NearTol == 0 {
		opts.NearTol = 0.25
	}
	if opts.NearTol < 0 {
		return nil, fmt.Errorf("cache: negative tolerance")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	c := &Cache{
		opts:     opts,
		byKey:    make(map[string]*entry),
		byFamily: make(map[string][]*entry),
	}
	if err := c.scan(); err != nil {
		return nil, err
	}
	return c, nil
}

// scan rebuilds the index from the directory contents.
func (c *Cache) scan() error {
	qio.RemoveTemps(c.opts.Dir) // a killed Put's; outside the byte budget
	names, err := filepath.Glob(filepath.Join(c.opts.Dir, "*"+entryExt))
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	type found struct {
		e     *entry
		mtime int64
	}
	var all []found
	for _, path := range names {
		raw, err := os.ReadFile(path)
		var d *entryData
		if err == nil {
			d, err = decodeEntry(raw, false)
		}
		if err != nil {
			// A leftover or damaged file; drop it rather than index it.
			c.stats.Corrupt++
			os.Remove(path)
			continue
		}
		info, err := os.Stat(path)
		if err != nil {
			continue
		}
		e := &entry{size: info.Size(), pos: d.Pos}
		syms := make([]string, len(d.Spec))
		for i, sp := range d.Spec {
			syms[i] = d.Symbols[sp]
		}
		e.family = familyHash(d.CfgTag, d.CellL, syms)
		e.key = keyHash(e.family, geom.Cell{L: d.CellL}, d.Pos)
		if want := filepath.Join(c.opts.Dir, e.key+entryExt); want != path {
			// Entry does not hash to its filename (e.g. copied in under
			// another name, or keyed by a build that hashed differently).
			// Rehome it.
			if os.Rename(path, want) != nil {
				os.Remove(path)
				continue
			}
		}
		all = append(all, found{e, info.ModTime().UnixNano()})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime < all[j].mtime })
	for _, f := range all {
		if old := c.byKey[f.e.key]; old != nil {
			c.remove(old) // duplicate key after rehoming; keep the newer
		}
		c.insert(f.e)
	}
	c.evictLocked()
	return nil
}

// familyHash digests everything but positions: configuration tag, cell
// edge, and the ordered per-atom species symbols. Structures must share
// a family to be near-miss candidates for each other.
func familyHash(cfgTag string, cellL float64, symbols []string) string {
	h := sha256.New()
	h.Write([]byte(cfgTag))
	h.Write([]byte{0})
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(cellL))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(len(symbols)))
	h.Write(b[:])
	for _, s := range symbols {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// quantTol (Bohr) is the position quantization of the exact-match key:
// structures whose coordinates agree within it hash identically. It is
// tight enough that "exact" is bitwise for any realistic trajectory,
// loose enough to absorb decimal round-trips.
const quantTol = 1e-6

// keyHash extends a family hash with positions wrapped into the cell and
// quantized to quantTol, yielding the exact-match key.
func keyHash(family string, cell geom.Cell, pos []geom.Vec3) string {
	h := sha256.New()
	h.Write([]byte(family))
	var b [8]byte
	q := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(math.Round(x/quantTol))))
		h.Write(b[:])
	}
	for _, p := range pos {
		w := cell.Wrap(p)
		q(w.X)
		q(w.Y)
		q(w.Z)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// systemHashes computes (family, key) for a live system.
func systemHashes(sys *atoms.System, cfgTag string) (string, string) {
	syms := make([]string, len(sys.Atoms))
	pos := make([]geom.Vec3, len(sys.Atoms))
	for i, a := range sys.Atoms {
		syms[i] = a.Species.Symbol
		pos[i] = a.Position
	}
	family := familyHash(cfgTag, sys.Cell.L, syms)
	return family, keyHash(family, sys.Cell, pos)
}

// maxDisplacement returns the largest per-atom minimum-image distance
// between a live system and a cached position list of the same length.
func maxDisplacement(cell geom.Cell, sys *atoms.System, pos []geom.Vec3) float64 {
	worst := 0.0
	for i := range pos {
		if d := cell.Distance(sys.Atoms[i].Position, pos[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// Lookup consults the cache for sys under configuration cfgTag.
//
// On TierExact the full stored Result is returned and the SCF solve can
// be skipped. When nearOK is true and no exact entry exists, the nearest
// same-family entry within NearTol is decoded and its density returned
// as a TierNear seed; with nearOK false such a lookup counts as a plain
// miss. On TierMiss the result is nil.
//
// A stored entry that fails to decode is treated as corrupt: it is
// removed from index and disk and the lookup continues as if it were
// absent.
func (c *Cache) Lookup(sys *atoms.System, cfgTag string, nearOK bool) (*Result, Tier) {
	defer perf.GetPhase("cache/lookup").Start().Stop()
	family, key := systemHashes(sys, cfgTag)

	c.mu.Lock()
	defer c.mu.Unlock()

	if e := c.byKey[key]; e != nil {
		if d, ok := c.load(e); ok {
			c.touch(e)
			c.stats.Hits++
			c.stats.SCFIterationsSaved += int64(d.SCFIterations)
			return resultOf(d), TierExact
		}
	}
	if nearOK {
		var best *entry
		bestD := math.Inf(1)
		for _, e := range c.byFamily[family] {
			if len(e.pos) != len(sys.Atoms) {
				continue
			}
			if d := maxDisplacement(sys.Cell, sys, e.pos); d < bestD {
				best, bestD = e, d
			}
		}
		if best != nil && bestD <= c.opts.NearTol {
			if d, ok := c.load(best); ok {
				c.touch(best)
				c.stats.NearHits++
				return resultOf(d), TierNear
			}
		}
	}
	c.stats.Misses++
	return nil, TierMiss
}

// load reads and fully decodes e's file. On failure the entry is dropped
// from index and disk and counted corrupt.
func (c *Cache) load(e *entry) (*entryData, bool) {
	raw, err := os.ReadFile(c.path(e.key))
	var d *entryData
	if err == nil {
		d, err = decodeEntry(raw, true)
	}
	if err != nil {
		c.stats.Corrupt++
		c.remove(e)
		os.Remove(c.path(e.key))
		return nil, false
	}
	return d, true
}

func resultOf(d *entryData) *Result {
	return &Result{
		EnergyHa:      d.EnergyHa,
		Forces:        d.Force,
		SCFIterations: d.SCFIterations,
		Rho:           &grid.Field{Grid: grid.New(d.GridN, d.CellL), Data: d.Rho},
	}
}

// Put stores the converged result of an SCF solve for sys. The entry is
// written crash-safely; an existing entry under the same key is
// replaced. Eviction runs afterwards, never evicting the entry just
// inserted.
func (c *Cache) Put(sys *atoms.System, cfgTag string, res *Result) error {
	defer perf.GetPhase("cache/put").Start().Stop()
	if res == nil || res.Rho == nil {
		return fmt.Errorf("cache: Put without a density")
	}
	d := &entryData{
		CfgTag:        cfgTag,
		CellL:         sys.Cell.L,
		EnergyHa:      res.EnergyHa,
		SCFIterations: res.SCFIterations,
		GridN:         res.Rho.Grid.N,
		Rho:           res.Rho.Data,
	}
	symID := map[string]uint8{}
	for _, a := range sys.Atoms {
		sym := a.Species.Symbol
		if _, ok := symID[sym]; !ok {
			if len(d.Symbols) >= 256 {
				return fmt.Errorf("cache: more than 256 species")
			}
			symID[sym] = uint8(len(d.Symbols))
			d.Symbols = append(d.Symbols, sym)
		}
		d.Spec = append(d.Spec, symID[sym])
		d.Pos = append(d.Pos, a.Position)
	}
	d.Force = res.Forces
	raw, err := encodeEntry(d)
	if err != nil {
		return err
	}
	if int64(len(raw)) > c.opts.MaxBytes {
		return fmt.Errorf("cache: entry of %d bytes exceeds the %d-byte budget",
			len(raw), c.opts.MaxBytes)
	}
	family, key := systemHashes(sys, cfgTag)

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := qio.WriteFileAtomic(c.path(key), bytes.NewReader(raw)); err != nil {
		return err
	}
	if old := c.byKey[key]; old != nil {
		c.remove(old)
	}
	e := &entry{
		key:    key,
		family: family,
		size:   int64(len(raw)),
		pos:    append([]geom.Vec3(nil), d.Pos...),
	}
	c.insert(e)
	c.evictLocked()
	return nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.byKey)
	s.Bytes = c.bytes
	return s
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.opts.Dir, key+entryExt)
}

// insert adds e at the LRU head and indexes it. Caller holds mu.
func (c *Cache) insert(e *entry) {
	c.byKey[e.key] = e
	c.byFamily[e.family] = append(c.byFamily[e.family], e)
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
	c.bytes += e.size
}

// remove unlinks e from the LRU and indexes. Caller holds mu.
func (c *Cache) remove(e *entry) {
	delete(c.byKey, e.key)
	fam := c.byFamily[e.family]
	for i, x := range fam {
		if x == e {
			c.byFamily[e.family] = append(fam[:i], fam[i+1:]...)
			break
		}
	}
	if len(c.byFamily[e.family]) == 0 {
		delete(c.byFamily, e.family)
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.bytes -= e.size
}

// touch moves e to the LRU head. Caller holds mu.
func (c *Cache) touch(e *entry) {
	if c.head == e {
		return
	}
	// Unlink.
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	// Relink at head.
	e.prev, e.next = nil, c.head
	c.head.prev = e
	c.head = e
}

// evictLocked removes least-recently-used entries (and their files)
// until the byte budget holds. Caller holds mu.
func (c *Cache) evictLocked() {
	for c.bytes > c.opts.MaxBytes && c.tail != nil {
		victim := c.tail
		c.remove(victim)
		os.Remove(c.path(victim.key))
		c.stats.Evictions++
	}
}
