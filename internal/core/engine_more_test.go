package core

import (
	"math"
	"slices"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/perf"
	"ldcdft/internal/pw"
)

// TestDomainDensityAndCoreWeightsAllocateNothing: on a warmed engine
// whose domains take the dense path, a domain's density and core weights
// run no complex transform and allocate nothing — the workspace owns the
// scratch and the core operator.
func TestDomainDensityAndCoreWeightsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, c := range []struct{ gridN, nd int }{{16, 2}, {18, 3}} { // 57- and 27-wave domains
		e, err := NewEngine(atoms.BuildSiC(1), goldenConfig(c.gridN, c.nd, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.SCFStep(); err != nil {
			t.Fatal(err)
		}
		ws, st := e.ws[0], e.states[e.active[0]]
		if err := ws.retarget(st, e.store, false); err != nil {
			t.Fatal(err)
		}
		fft3d := perf.GetPhase("fft/3d")
		before := fft3d.Calls()
		allocs := testing.AllocsPerRun(20, func() {
			pw.DensityInto(ws.eng.Basis, ws.eng.Psi, st.occ, ws.rhoLocal.Data, &ws.scratch)
			ws.core.Weights(ws.eng.Psi, st.coreW, &ws.scratch)
		})
		if n := fft3d.Calls() - before; n != 0 {
			t.Errorf("grid %d: %d complex transforms: the domains took the FFT path", c.gridN, n)
		}
		if allocs != 0 {
			t.Errorf("grid %d: domain density and core weights allocate %v objects per visit, want 0", c.gridN, allocs)
		}
		e.Close()
	}
}

func TestSetDensity(t *testing.T) {
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeLDC, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	good := grid.NewField(e.Global)
	for i := range good.Data {
		good.Data[i] = 0.05
	}
	if err := e.SetDensity(good); err != nil {
		t.Fatal(err)
	}
	if e.Rho.Data[0] != 0.05 {
		t.Fatal("density not installed")
	}
	bad := grid.NewField(grid.New(8, sys.Cell.L))
	if err := e.SetDensity(bad); err == nil {
		t.Fatal("grid mismatch must fail")
	}
}

func TestWorkersOne(t *testing.T) {
	// Serial domain execution must agree with parallel.
	sys := atoms.BuildSiC(1)
	cfgP := sicConfig(ModeLDC, 2, 2)
	cfgS := cfgP
	cfgS.Workers = 1
	ep, err := NewEngine(sys, cfgP)
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewEngine(sys, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	_, stepP, err := ep.SCFStep()
	if err != nil {
		t.Fatal(err)
	}
	_, stepS, err := es.SCFStep()
	if err != nil {
		t.Fatal(err)
	}
	if diff := stepP.Energy - stepS.Energy; diff > 1e-10 || diff < -1e-10 {
		t.Fatalf("parallel (%.12f) vs serial (%.12f) energies differ", stepP.Energy, stepS.Energy)
	}
}

// ExportHistories and SetHistories carry the ρα histories between two
// engines on the same decomposition: a vacuum domain exports nil, a nil
// entry keeps the seed from ρ, and a wrong shape installs nothing.
func TestHistoriesRoundTrip(t *testing.T) {
	sys := atoms.BuildSiC(1)
	// Two atoms in the middles of two domain cores: most of the 27
	// domains are vacuum.
	sys.Atoms = sys.Atoms[:2]
	for i, at := range []float64{1.0 / 6, 0.5} {
		sys.Atoms[i].Position = geom.Vec3{X: at * sys.Cell.L, Y: at * sys.Cell.L, Z: at * sys.Cell.L}
	}
	cfg := sicConfig(ModeLDC, 3, 2)
	src, err := NewEngine(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.SCFStep(); err != nil {
		t.Fatal(err)
	}
	h := src.ExportHistories()
	if len(h) != src.NumDomains() || src.OccupiedDomains() == src.NumDomains() {
		t.Fatalf("%d histories, %d of %d domains occupied", len(h), src.OccupiedDomains(), src.NumDomains())
	}
	for di, st := range src.states {
		if (h[di] == nil) != (st.nb == 0) {
			t.Fatalf("domain %d: history present %v, vacuum %v", di, h[di] != nil, st.nb == 0)
		}
	}

	dst, err := NewEngine(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.SetHistories(h[:1]); err == nil {
		t.Fatal("a history count other than the domain count must fail")
	}
	first := src.active[0]
	short := slices.Clone(h)
	short[first] = short[first][:1]
	if err := dst.SetHistories(short); err == nil {
		t.Fatal("a history off the local grid must fail")
	}
	seeded := slices.Clone(dst.states[first].rhoPrev.Data)
	kept := slices.Clone(h)
	kept[first] = nil
	if err := dst.SetHistories(kept); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dst.states[first].rhoPrev.Data, seeded) {
		t.Fatal("a nil entry replaced the seed from ρ")
	}
	for _, di := range dst.active[1:] {
		if !slices.Equal(dst.states[di].rhoPrev.Data, h[di]) {
			t.Fatalf("domain %d history not installed", di)
		}
	}
	h[dst.active[1]][0] = -1 // the engine holds a copy, not the exporter's slice
	if dst.states[dst.active[1]].rhoPrev.Data[0] == -1 {
		t.Fatal("installed history aliases the caller's slice")
	}
}

// Two solves of a three-species cell give the same bits. Every atom sits
// in all eight extended domains, so each domain's ionic potential sums
// three species per bin, whose order two species (SiC, H₂) cannot show.
func TestThreeSpeciesSolveDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two SCF solves")
	}
	sys := &atoms.System{Cell: geom.Cell{L: 10}, Atoms: []atoms.Atom{
		{Species: atoms.Lithium, Position: geom.Vec3{X: 4.0, Y: 4.0, Z: 4.0}},
		{Species: atoms.Oxygen, Position: geom.Vec3{X: 5.6, Y: 5.2, Z: 5.4}},
		{Species: atoms.Hydrogen, Position: geom.Vec3{X: 6.2, Y: 6.0, Z: 4.6}},
		{Species: atoms.Hydrogen, Position: geom.Vec3{X: 4.8, Y: 6.1, Z: 6.1}},
	}}
	cfg := goldenConfig(16, 2, 2)
	solve := func() (float64, []geom.Vec3) {
		e, err := NewEngine(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res, err := e.Solve()
		if err != nil {
			t.Fatal(err)
		}
		f, err := e.Forces()
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy, f
	}
	e1, f1 := solve()
	e2, f2 := solve()
	if math.Float64bits(e1) != math.Float64bits(e2) {
		t.Fatalf("energies %v and %v", e1, e2)
	}
	for i := range f1 {
		a, b := f1[i], f2[i]
		for k, pair := range [3][2]float64{{a.X, b.X}, {a.Y, b.Y}, {a.Z, b.Z}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("atom %d, axis %d: forces %v and %v", i, k, a, b)
			}
		}
	}
}
