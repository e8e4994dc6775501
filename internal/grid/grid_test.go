package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// maxAbsDiff returns max |f − g|.
func maxAbsDiff(f, g *Field) float64 {
	var m float64
	for i, v := range f.Data {
		m = math.Max(m, math.Abs(v-g.Data[i]))
	}
	return m
}

// Index is row-major with z fastest: it enumerates 0..Size−1 in order.
func TestIndexCoordsRoundTrip(t *testing.T) {
	g := New(5, 10)
	i := 0
	for ix := 0; ix < g.N; ix++ {
		for iy := 0; iy < g.N; iy++ {
			for iz := 0; iz < g.N; iz++ {
				if g.Index(ix, iy, iz) != i {
					t.Fatalf("Index(%d,%d,%d) = %d, want %d", ix, iy, iz, g.Index(ix, iy, iz), i)
				}
				i++
			}
		}
	}
}

func TestIndexWraps(t *testing.T) {
	g := New(4, 8)
	if g.Index(-1, 0, 0) != g.Index(3, 0, 0) {
		t.Fatal("negative x wrap")
	}
	if g.Index(0, 4, 0) != g.Index(0, 0, 0) {
		t.Fatal("positive y wrap")
	}
	if g.Index(0, 0, -5) != g.Index(0, 0, 3) {
		t.Fatal("large negative z wrap")
	}
}

func TestFieldIntegral(t *testing.T) {
	g := New(8, 4)
	f := NewField(g)
	for i := range f.Data {
		f.Data[i] = 2
	}
	// ∫ 2 dV over a 4³ box = 128.
	if math.Abs(f.Integral()-128) > 1e-12 {
		t.Fatalf("Integral = %g", f.Integral())
	}
	if math.Abs(f.Mean()-2) > 1e-14 {
		t.Fatal("Mean")
	}
}

func TestFieldOps(t *testing.T) {
	g := New(4, 1)
	a := NewField(g)
	a.Data[0] = 7
	c := a.Clone()
	c.Data[0] = 0
	if a.Data[0] != 7 {
		t.Fatal("Clone must deep copy")
	}
	if c.Grid != a.Grid || len(c.Data) != len(a.Data) {
		t.Fatal("Clone must keep the grid")
	}
}

func TestDecomposePartitionOfUnity(t *testing.T) {
	g := New(12, 24)
	doms, err := Decompose(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(doms) != 27 {
		t.Fatalf("expected 27 domains, got %d", len(doms))
	}
	// Σα pα(r) = 1: every grid point belongs to exactly one core.
	count := make([]int, g.Size())
	for _, d := range doms {
		for ix := 0; ix < d.CoreN; ix++ {
			for iy := 0; iy < d.CoreN; iy++ {
				for iz := 0; iz < d.CoreN; iz++ {
					count[g.Index(d.Ox+ix, d.Oy+iy, d.Oz+iz)]++
				}
			}
		}
	}
	for i, c := range count {
		if c != 1 {
			t.Fatalf("grid point %d covered by %d cores", i, c)
		}
	}
	d := doms[0]
	if d.CoreN != 4 || d.BufN != 2 || d.EdgeN() != 8 {
		t.Fatalf("domain geometry: core %d buffer %d edge %d", d.CoreN, d.BufN, d.EdgeN())
	}
}

func TestDecomposeErrors(t *testing.T) {
	g := New(10, 5)
	if _, err := Decompose(g, 3, 1); err == nil {
		t.Fatal("expected error for indivisible grid")
	}
	if _, err := Decompose(g, 2, -1); err == nil {
		t.Fatal("expected error for negative buffer")
	}
}

func TestExtractAccumulateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(8, 16)
	global := NewField(g)
	for i := range global.Data {
		global.Data[i] = rng.NormFloat64()
	}
	doms, err := Decompose(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := NewField(g)
	for _, d := range doms {
		local := d.Extract(global)
		d.AccumulateCore(local, rebuilt)
	}
	if maxAbsDiff(global, rebuilt) > 1e-14 {
		t.Fatal("extract+accumulate did not reproduce the global field")
	}
}

func TestExtractWrapsPeriodically(t *testing.T) {
	g := New(4, 4)
	global := NewField(g)
	for i := range global.Data {
		global.Data[i] = float64(i)
	}
	d := Domain{Global: g, Ox: 0, Oy: 0, Oz: 0, CoreN: 2, BufN: 1}
	local := d.Extract(global)
	e := d.EdgeN()
	// local(0,0,0) corresponds to global(-1,-1,-1) = (3,3,3).
	if local.Data[0] != global.Data[g.Index(3, 3, 3)] {
		t.Fatal("periodic wrap in Extract failed")
	}
	if local.Data[(1*e+1)*e+1] != global.Data[g.Index(0, 0, 0)] {
		t.Fatal("core offset in Extract failed")
	}
}

// Property: for any valid decomposition, extract/accumulate over all
// domains is the identity on the global field.
func TestDomainRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(3)
		coreN := 1 + rng.Intn(4)
		n := nd * coreN
		g := New(n, float64(n))
		doms, err := Decompose(g, nd, rng.Intn(3))
		if err != nil {
			return false
		}
		global := NewField(g)
		for i := range global.Data {
			global.Data[i] = rng.NormFloat64()
		}
		rebuilt := NewField(g)
		for _, d := range doms {
			d.AccumulateCore(d.Extract(global), rebuilt)
		}
		return maxAbsDiff(global, rebuilt) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalGridGeometry(t *testing.T) {
	g := New(16, 32) // h = 2
	d := Domain{Global: g, Ox: 0, Oy: 0, Oz: 0, CoreN: 4, BufN: 2}
	lg := d.LocalGrid()
	if lg.N != 8 {
		t.Fatalf("local N = %d", lg.N)
	}
	if math.Abs(lg.H()-g.H()) > 1e-14 {
		t.Fatal("local grid spacing must equal global")
	}
	o := d.Origin()
	if math.Abs(o.X+4) > 1e-12 {
		t.Fatalf("origin %v", o)
	}
}
