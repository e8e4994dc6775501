package qmd

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"ldcdft/internal/cache"
	"ldcdft/internal/geom"
	"ldcdft/internal/perf"
	"ldcdft/internal/qio"
)

// h2System is the smoke-test workload: two hydrogen atoms in a small
// cell, cheap enough for repeated full trajectories.
func h2System() *System {
	return &System{
		Cell: Cell{L: 8},
		Atoms: []Atom{
			{Species: Hydrogen, Position: geom.Vec3{X: 3.3, Y: 4, Z: 4}},
			{Species: Hydrogen, Position: geom.Vec3{X: 4.7, Y: 4, Z: 4}},
		},
	}
}

func h2Config() LDCConfig {
	return LDCConfig{
		GridN: 12, DomainsPerAxis: 1, Ecut: 4.0,
		KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxSCF: 80,
		EigenIters: 4, Seed: 1, EnergyTol: 1e-5, DensityTol: 1e-4,
	}
}

// The cache tag is what keeps a hit from returning another
// configuration's energy: every LDCConfig field moved off its zero value
// must change it, except Workers and SpillDir, which must not. Walking
// the fields by reflection also catches a field added without a tag entry.
func TestCacheTagCoversConfig(t *testing.T) {
	base := (&DFTForceField{}).tag()
	typ := reflect.TypeOf(LDCConfig{})
	for i := 0; i < typ.NumField(); i++ {
		var cfg LDCConfig
		v := reflect.ValueOf(&cfg).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(1)
		case reflect.Float64:
			v.SetFloat(1.5)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString("x")
		default:
			t.Fatalf("field %s: no test value for kind %v", typ.Field(i).Name, v.Kind())
		}
		name := typ.Field(i).Name
		changed := (&DFTForceField{Cfg: cfg}).tag() != base
		if want := name != "Workers" && name != "SpillDir"; changed != want {
			t.Errorf("field %s: tag changed = %v, want %v", name, changed, want)
		}
	}
}

// An identical resubmission must be served entirely from the cache: the
// SCF loop (the scf/domain-solves perf phase) is never entered, and the
// trajectory is bitwise identical to the first run's.
func TestCacheExactHitServesWithoutSCF(t *testing.T) {
	if testing.Short() {
		t.Skip("full SCF solves")
	}
	c, err := cache.Open(cache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 2
	opts := QMDOptions{Cache: c}

	res1, err := RunQMDOpts(h2System(), h2Config(), steps, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.SCFIterations == 0 {
		t.Fatal("cold run reported no SCF iterations")
	}
	st := c.Stats()
	// steps+1 force evaluations (initial forces + one per step), all misses.
	if st.Misses != steps+1 || st.Hits != 0 {
		t.Fatalf("cold-run stats %+v, want %d misses", st, steps+1)
	}

	solves := perf.GetPhase("scf/domain-solves").Calls()
	res2, err := RunQMDOpts(h2System(), h2Config(), steps, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := perf.GetPhase("scf/domain-solves").Calls(); got != solves {
		t.Fatalf("exact-hit rerun entered the SCF loop: domain-solves calls %d → %d", solves, got)
	}
	if res2.SCFIterations != 0 {
		t.Fatalf("exact-hit rerun reported %d SCF iterations, want 0", res2.SCFIterations)
	}
	for i := range res1.Energies {
		if res2.Energies[i] != res1.Energies[i] {
			t.Fatalf("step %d energy %v != %v", i+1, res2.Energies[i], res1.Energies[i])
		}
		if res2.Temperatures[i] != res1.Temperatures[i] {
			t.Fatalf("step %d temperature %v != %v", i+1, res2.Temperatures[i], res1.Temperatures[i])
		}
	}
	st = c.Stats()
	if st.Hits != steps+1 {
		t.Fatalf("rerun stats %+v, want %d exact hits", st, steps+1)
	}
	// Savings cover every stored solve, the integrator's priming force
	// evaluation included — as QMDResult.SCFIterations does.
	if st.SCFIterationsSaved != int64(res1.SCFIterations) {
		t.Fatalf("iterations saved %d, want the cold run's recorded cost %d",
			st.SCFIterationsSaved, res1.SCFIterations)
	}
}

// An exact cache hit in the middle of a trajectory drops the carried ρα
// histories, so the next miss seeds them from the cached density alone:
// the checkpoint written right after the hit holds the cached density and
// no histories, and resuming from it ends in the same bits as the run
// that was never interrupted.
func TestCacheHitMidRunResumesBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("full SCF solves")
	}
	cfg := h2Config()
	first, err := RunQMD(h2System(), cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A cache holding one entry, at the positions after step 1 — solved
	// cold, so its density is not the trajectory's own — and a near-miss
	// tolerance too small to seed the first evaluation from it.
	cacheAtStep1 := func() *cache.Cache {
		c, err := cache.Open(cache.Options{Dir: t.TempDir(), NearTol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := (&DFTForceField{Cfg: cfg, Cache: c}).Compute(first.FinalSystem.Clone()); err != nil {
			t.Fatal(err)
		}
		return c
	}

	c := cacheAtStep1()
	full, err := RunQMDOpts(h2System(), cfg, 3, 0, QMDOptions{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("uninterrupted run: %d exact hits, want 1 (step 1)", st.Hits)
	}

	c = cacheAtStep1()
	path := filepath.Join(t.TempDir(), "ck.qmd")
	if _, err := RunQMDOpts(h2System(), cfg, 1, 0, QMDOptions{Cache: c, CheckpointEvery: 1, CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("interrupted run: %d exact hits, want 1 (step 1)", st.Hits)
	}
	ck, err := qio.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Hist != nil || ck.GridN == 0 {
		t.Fatalf("checkpoint after the hit: %d histories, density grid %d; want none and the cached density", len(ck.Hist), ck.GridN)
	}
	res, err := ResumeQMD(path, cfg, 3, 0, QMDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Energies {
		if math.Float64bits(res.Energies[i]) != math.Float64bits(full.Energies[i]) {
			t.Fatalf("step %d energy: resumed %.17g vs uninterrupted %.17g", i+1, res.Energies[i], full.Energies[i])
		}
	}
	for i, a := range full.FinalSystem.Atoms {
		if b := res.FinalSystem.Atoms[i]; a.Position != b.Position || a.Velocity != b.Velocity {
			t.Fatalf("atom %d not bitwise equal after resume", i)
		}
	}
}
