package cache

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
)

// testSystem builds a small H/Si configuration with deterministic
// positions inside an 8-Bohr cell.
func testSystem(seed int64) *atoms.System {
	rng := rand.New(rand.NewSource(seed))
	sys := &atoms.System{Cell: geom.Cell{L: 8}}
	for i := 0; i < 4; i++ {
		sp := atoms.Hydrogen
		if i%2 == 1 {
			sp = atoms.Silicon
		}
		sys.Atoms = append(sys.Atoms, atoms.Atom{
			Species:  sp,
			Position: geom.Vec3{X: rng.Float64() * 8, Y: rng.Float64() * 8, Z: rng.Float64() * 8},
		})
	}
	return sys
}

// testResult fabricates a converged-solve payload matching sys.
func testResult(sys *atoms.System, gridN, iters int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	rho := grid.NewField(grid.New(gridN, sys.Cell.L))
	for i := range rho.Data {
		rho.Data[i] = rng.Float64()
	}
	forces := make([]geom.Vec3, len(sys.Atoms))
	for i := range forces {
		forces[i] = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	return &Result{
		EnergyHa:      -1.25 * float64(seed+1),
		Forces:        forces,
		SCFIterations: iters,
		Rho:           rho,
	}
}

func openTest(t *testing.T, opts Options) *Cache {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	c, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const tag = "cfg-v1"

func TestExactHitRoundTripsBitwise(t *testing.T) {
	c := openTest(t, Options{})
	sys := testSystem(1)
	want := testResult(sys, 12, 17, 1)
	if err := c.Put(sys, tag, want); err != nil {
		t.Fatal(err)
	}
	got, tier := c.Lookup(sys, tag, true)
	if tier != TierExact {
		t.Fatalf("tier %v, want exact", tier)
	}
	if got.EnergyHa != want.EnergyHa || got.SCFIterations != want.SCFIterations {
		t.Fatalf("energy/iters %v/%d, want %v/%d",
			got.EnergyHa, got.SCFIterations, want.EnergyHa, want.SCFIterations)
	}
	for i := range want.Forces {
		if got.Forces[i] != want.Forces[i] {
			t.Fatalf("force %d: %v != %v", i, got.Forces[i], want.Forces[i])
		}
	}
	if got.Rho.Grid != want.Rho.Grid {
		t.Fatalf("grid %v != %v", got.Rho.Grid, want.Rho.Grid)
	}
	for i := range want.Rho.Data {
		if got.Rho.Data[i] != want.Rho.Data[i] {
			t.Fatalf("rho[%d]: %v != %v", i, got.Rho.Data[i], want.Rho.Data[i])
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.SCFIterationsSaved != 17 {
		t.Fatalf("stats %+v", st)
	}
}

func TestQuantizationAbsorbsTinyPerturbation(t *testing.T) {
	c := openTest(t, Options{})
	sys := testSystem(2)
	if err := c.Put(sys, tag, testResult(sys, 8, 5, 2)); err != nil {
		t.Fatal(err)
	}
	// Perturb well inside the quantization bucket width: still exact.
	bumped := testSystem(2)
	for i := range bumped.Atoms {
		bumped.Atoms[i].Position.X += quantTol / 100
	}
	if _, tier := c.Lookup(bumped, tag, false); tier != TierExact {
		t.Fatalf("sub-tolerance perturbation: tier %v, want exact", tier)
	}
	// Positions differing only by a lattice translation hash identically.
	wrapped := testSystem(2)
	for i := range wrapped.Atoms {
		wrapped.Atoms[i].Position.Y += wrapped.Cell.L
	}
	if _, tier := c.Lookup(wrapped, tag, false); tier != TierExact {
		t.Fatalf("lattice-translated copy: tier %v, want exact", tier)
	}
}

func TestNearMissServesSeedWithinTolerance(t *testing.T) {
	c := openTest(t, Options{NearTol: 0.3})
	sys := testSystem(3)
	stored := testResult(sys, 8, 9, 3)
	if err := c.Put(sys, tag, stored); err != nil {
		t.Fatal(err)
	}

	near := testSystem(3)
	for i := range near.Atoms {
		near.Atoms[i].Position.X += 0.2
	}
	got, tier := c.Lookup(near, tag, true)
	if tier != TierNear {
		t.Fatalf("0.2-Bohr shift: tier %v, want near", tier)
	}
	if got.SCFIterations != stored.SCFIterations {
		t.Fatalf("seed iters %d, want %d", got.SCFIterations, stored.SCFIterations)
	}
	for i := range stored.Rho.Data {
		if got.Rho.Data[i] != stored.Rho.Data[i] {
			t.Fatal("seed density differs from stored density")
		}
	}
	// The same structure with nearOK=false must be a plain miss.
	if _, tier := c.Lookup(near, tag, false); tier != TierMiss {
		t.Fatalf("nearOK=false: tier %v, want miss", tier)
	}

	far := testSystem(3)
	for i := range far.Atoms {
		far.Atoms[i].Position.X += 0.5
	}
	if _, tier := c.Lookup(far, tag, true); tier != TierMiss {
		t.Fatalf("0.5-Bohr shift: tier %v, want miss", tier)
	}
	st := c.Stats()
	if st.NearHits != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestNearMissPicksNearestOfSeveral(t *testing.T) {
	c := openTest(t, Options{NearTol: 1.0})
	a := testSystem(4)
	b := testSystem(4)
	for i := range b.Atoms {
		b.Atoms[i].Position.Z += 0.6
	}
	if err := c.Put(a, tag, testResult(a, 8, 3, 10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(b, tag, testResult(b, 8, 4, 11)); err != nil {
		t.Fatal(err)
	}
	// Probe 0.5 Bohr from a, 0.1 Bohr from b: must pick b.
	probe := testSystem(4)
	for i := range probe.Atoms {
		probe.Atoms[i].Position.Z += 0.5
	}
	got, tier := c.Lookup(probe, tag, true)
	if tier != TierNear || got.SCFIterations != 4 {
		t.Fatalf("tier %v iters %d, want near seed from the 0.1-Bohr neighbor",
			tier, got.SCFIterations)
	}
}

func TestDifferentConfigCellSpeciesMiss(t *testing.T) {
	c := openTest(t, Options{})
	sys := testSystem(5)
	if err := c.Put(sys, tag, testResult(sys, 8, 5, 5)); err != nil {
		t.Fatal(err)
	}
	if _, tier := c.Lookup(sys, "cfg-v2", true); tier != TierMiss {
		t.Fatalf("different config tag: tier %v", tier)
	}
	bigger := testSystem(5)
	bigger.Cell.L = 9
	if _, tier := c.Lookup(bigger, tag, true); tier != TierMiss {
		t.Fatalf("different cell: tier %v", tier)
	}
	swapped := testSystem(5)
	swapped.Atoms[0].Species = atoms.Carbon
	if _, tier := c.Lookup(swapped, tag, true); tier != TierMiss {
		t.Fatalf("different species: tier %v", tier)
	}
}

func TestEvictionUnderByteBudget(t *testing.T) {
	dir := t.TempDir()
	probeSys := testSystem(100)
	probe, err := encodeEntry(&entryData{
		CfgTag: tag, CellL: 8, SCFIterations: 1,
		Symbols: []string{"H"}, Spec: []uint8{0, 0, 0, 0},
		Pos:   make([]geom.Vec3, 4),
		Force: make([]geom.Vec3, 4),
		GridN: 8, Rho: testResult(probeSys, 8, 1, 100).Rho.Data,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Budget for roughly three entries of this shape.
	c := openTest(t, Options{Dir: dir, MaxBytes: int64(3*len(probe)) + 64})

	systems := make([]*atoms.System, 4)
	for i := range systems {
		systems[i] = testSystem(int64(200 + i))
		if err := c.Put(systems[i], tag, testResult(systems[i], 8, 2, int64(200+i))); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget after 4 puts", c.opts.MaxBytes)
	}
	if st.Bytes > c.opts.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, c.opts.MaxBytes)
	}
	// Oldest entry evicted, newest still present.
	if _, tier := c.Lookup(systems[0], tag, false); tier != TierMiss {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if _, tier := c.Lookup(systems[3], tag, false); tier != TierExact {
		t.Fatal("most recent entry was evicted")
	}
	// Evicted files are really gone from disk.
	names, _ := filepath.Glob(filepath.Join(dir, "*"+entryExt))
	if len(names) != c.Stats().Entries {
		t.Fatalf("%d files on disk, %d entries indexed", len(names), c.Stats().Entries)
	}
}

func TestLookupTouchesLRU(t *testing.T) {
	c := openTest(t, Options{})
	a, b := testSystem(300), testSystem(301)
	if err := c.Put(a, tag, testResult(a, 8, 1, 300)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(b, tag, testResult(b, 8, 1, 301)); err != nil {
		t.Fatal(err)
	}
	// Touch a so b becomes the eviction victim despite being newer.
	if _, tier := c.Lookup(a, tag, false); tier != TierExact {
		t.Fatal("warm-up lookup missed")
	}
	c.opts.MaxBytes = c.bytes - 1
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	if _, tier := c.Lookup(a, tag, false); tier != TierExact {
		t.Fatal("recently-used entry was evicted")
	}
	if _, tier := c.Lookup(b, tag, false); tier != TierMiss {
		t.Fatal("stale entry survived eviction")
	}
}

func TestCorruptEntryRejectedAndRemoved(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, Options{Dir: dir})
	sys := testSystem(6)
	if err := c.Put(sys, tag, testResult(sys, 8, 5, 6)); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*"+entryExt))
	if len(names) != 1 {
		t.Fatalf("%d entry files, want 1", len(names))
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(names[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, tier := c.Lookup(sys, tag, true); tier != TierMiss {
		t.Fatalf("corrupt entry served: tier %v", tier)
	}
	st := c.Stats()
	if st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 corrupt and 0 entries", st)
	}
	if _, err := os.Stat(names[0]); !os.IsNotExist(err) {
		t.Fatal("corrupt file left on disk")
	}
}

func TestOpenRebuildsIndexAndDropsJunk(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, Options{Dir: dir})
	sys := testSystem(7)
	want := testResult(sys, 8, 6, 7)
	if err := c.Put(sys, tag, want); err != nil {
		t.Fatal(err)
	}
	// Plant junk that must not be indexed.
	if err := os.WriteFile(filepath.Join(dir, "junk"+entryExt), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := re.Stats()
	if st.Entries != 1 || st.Corrupt != 1 {
		t.Fatalf("reopened stats %+v, want 1 entry and 1 corrupt", st)
	}
	got, tier := re.Lookup(sys, tag, false)
	if tier != TierExact || got.EnergyHa != want.EnergyHa {
		t.Fatalf("reopened lookup: tier %v energy %v", tier, got)
	}
	if _, err := os.Stat(filepath.Join(dir, "junk"+entryExt)); !os.IsNotExist(err) {
		t.Fatal("junk file survived Open")
	}
}

func TestPutRejectsOversizeAndEmpty(t *testing.T) {
	c := openTest(t, Options{MaxBytes: 128})
	sys := testSystem(8)
	if err := c.Put(sys, tag, testResult(sys, 8, 1, 8)); err == nil {
		t.Fatal("entry larger than the whole budget accepted")
	}
	if err := c.Put(sys, tag, &Result{}); err == nil {
		t.Fatal("Put without density accepted")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	c := openTest(t, Options{MaxBytes: 1 << 20})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sys := testSystem(int64(w*4 + i%4))
				if i%2 == 0 {
					if err := c.Put(sys, tag, testResult(sys, 8, 3, int64(i))); err != nil {
						t.Error(err)
						return
					}
				} else {
					res, tier := c.Lookup(sys, tag, true)
					if tier != TierMiss && res == nil {
						t.Error("hit without result")
						return
					}
				}
				c.Stats()
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || math.MaxInt64-st.Bytes < 0 {
		t.Fatalf("byte accounting corrupted: %+v", st)
	}
}
