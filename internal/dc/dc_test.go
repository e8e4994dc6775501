package dc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ldcdft/internal/atoms"
	"ldcdft/internal/grid"
)

func TestOptimalCoreLength(t *testing.T) {
	// §3.1: l* = 2b/(ν−1) → 2b for ν=2, b for ν=3.
	if got := OptimalCoreLength(3.0, 2); math.Abs(got-6) > 1e-12 {
		t.Fatalf("ν=2: l* = %g, want 6", got)
	}
	if got := OptimalCoreLength(3.0, 3); math.Abs(got-3) > 1e-12 {
		t.Fatalf("ν=3: l* = %g, want 3", got)
	}
	if !math.IsInf(OptimalCoreLength(3, 1), 1) {
		t.Fatal("ν≤1 has no finite optimum")
	}
}

// Tcomp is the total computational cost model of §3.1 for a cubic system
// of side L tiled by domains with core length l and buffer thickness b,
// with per-domain DFT cost ∝ (domain edge)^{3ν}:
//
//	Tcomp(l) = (L/l)³ (l+2b)^{3ν}
func Tcomp(L, l, b, nu float64) float64 {
	nd := L / l
	return nd * nd * nd * math.Pow(l+2*b, 3*nu)
}

// Property: l* really minimizes Tcomp over a scan.
func TestOptimumMinimizesCost(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := 0.5 + rng.Float64()*5
		nu := 1.5 + rng.Float64()*2
		L := 100.0
		lstar := OptimalCoreLength(b, nu)
		best := Tcomp(L, lstar, b, nu)
		for _, scale := range []float64{0.5, 0.8, 1.25, 2} {
			if Tcomp(L, lstar*scale, b, nu) < best*(1-1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossoverNu2Analytic(t *testing.T) {
	// §5.2: for ν = 2 the crossover is L = 8b.
	for _, b := range []float64{1, 2, 3.57, 5} {
		got, err := CrossoverLength(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-8*b) > 1e-9*b {
			t.Fatalf("b=%g: crossover %g, want %g", b, got, 8*b)
		}
	}
}

func TestPaperCrossoverAtoms(t *testing.T) {
	// §5.2: b = 3.57 a.u. for CdSe → L = 28.56 a.u. → 125 atoms
	// referenced to the 512-atom, 45.664 a.u. cell; 1.5× buffer → 422.
	n, err := CrossoverAtoms(3.57, 2, 512, 45.664)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n-125) > 1 {
		t.Fatalf("crossover atoms %g, paper says ≈125", n)
	}
	n15, err := CrossoverAtoms(3.57*1.5, 2, 512, 45.664)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n15-125*1.5*1.5*1.5) > 2 {
		t.Fatalf("1.5× buffer crossover %g, paper says ≈422", n15)
	}
}

func TestPaperSpeedups(t *testing.T) {
	// §5.2: CdSe with l = 11.416, buffer 4.73 (DC) vs 3.57 (LDC) at
	// 5e-3 a.u. tolerance → speedup 2.03 (ν=2) and 2.89 (ν=3).
	l := 11.416
	s2 := Speedup(l, 4.73, 3.57, 2)
	if math.Abs(s2-2.03) > 0.02 {
		t.Fatalf("ν=2 speedup %g, paper says 2.03", s2)
	}
	s3 := Speedup(l, 4.73, 3.57, 3)
	if math.Abs(s3-2.89) > 0.03 {
		t.Fatalf("ν=3 speedup %g, paper says 2.89", s3)
	}
}

func TestTcompScaling(t *testing.T) {
	// Doubling the system size at fixed l, b multiplies cost by 8
	// (linear scaling in atom count).
	c1 := Tcomp(50, 5, 2, 2)
	c2 := Tcomp(100, 5, 2, 2)
	if math.Abs(c2/c1-8) > 1e-9 {
		t.Fatalf("O(N) scaling violated: ratio %g", c2/c1)
	}
}

func TestAssignAtoms(t *testing.T) {
	sys := atoms.BuildSiC(2) // 64 atoms
	g := grid.New(24, sys.Cell.L)
	doms, err := grid.Decompose(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	das, err := AssignAtoms(sys, doms)
	if err != nil {
		t.Fatal(err)
	}
	// Every atom in exactly one core.
	var coreTotal int
	for _, da := range das {
		coreTotal += da.CoreCount
		// Buffer atoms (in list, not core) exist for a nonzero buffer.
		if len(da.Index) < da.CoreCount {
			t.Fatal("inconsistent bookkeeping")
		}
		// Local coordinates inside the extended box.
		edge := float64(da.Domain.EdgeN()) * g.H()
		for _, p := range da.Local {
			if p.X < 0 || p.X >= edge || p.Y < 0 || p.Y >= edge || p.Z < 0 || p.Z >= edge {
				t.Fatalf("local coordinate %v outside [0,%g)", p, edge)
			}
		}
	}
	if coreTotal != 64 {
		t.Fatalf("core counts sum to %d, want 64", coreTotal)
	}
	// With a buffer, domains must include buffer atoms.
	withBuffer := 0
	for _, da := range das {
		withBuffer += len(da.Index)
	}
	if withBuffer <= 64 {
		t.Fatal("expected buffer atoms beyond the 64 core assignments")
	}
	// Valence bookkeeping.
	if das[0].Valence() <= 0 {
		t.Fatal("domain valence should be positive")
	}
}

func TestAssignAtomsRejectsOversizedBuffer(t *testing.T) {
	sys := atoms.BuildSiC(1)
	g := grid.New(16, sys.Cell.L)
	doms, err := grid.Decompose(g, 2, 6) // edge = 8+12 = 20 > 16
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssignAtoms(sys, doms); err == nil {
		t.Fatal("expected error: extended domain exceeds cell")
	}
}

func TestAssignAtomsZeroBuffer(t *testing.T) {
	sys := atoms.BuildSiC(2)
	g := grid.New(16, sys.Cell.L)
	doms, err := grid.Decompose(g, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	das, err := AssignAtoms(sys, doms)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, da := range das {
		total += len(da.Index)
		if len(da.Index) != da.CoreCount {
			t.Fatal("zero buffer must have no buffer atoms")
		}
	}
	if total != 64 {
		t.Fatalf("total %d, want 64", total)
	}
}
