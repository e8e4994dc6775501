package qmd

import (
	"math"
	"math/rand"
	"testing"
)

func TestPublicAPISolve(t *testing.T) {
	if testing.Short() {
		t.Skip("full SCF solve is minutes under -race; covered by the full test run")
	}
	sys := BuildSiC(1)
	eng, err := NewLDCEngine(sys, LDCConfig{
		GridN: 24, DomainsPerAxis: 2, BufN: 3, Ecut: 4.0,
		KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxSCF: 100, EigenIters: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(eng.Rho.Integral()-32) > 1e-6 {
		t.Fatalf("electron count %g", eng.Rho.Integral())
	}
}

func TestRunQMDConservesAndCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("QMD is expensive")
	}
	sys := BuildSiC(1)
	sys.InitVelocities(300, rand.New(rand.NewSource(2)))
	cfg := LDCConfig{
		GridN: 24, DomainsPerAxis: 2, BufN: 3, Ecut: 4.0,
		KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxSCF: 80,
		EigenIters: 4, Seed: 1, EnergyTol: 1e-5, DensityTol: 1e-4,
	}
	res, err := RunQMD(sys, cfg, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 || len(res.Energies) != 2 {
		t.Fatalf("steps %d energies %d", res.Steps, len(res.Energies))
	}
	if res.SCFIterations <= 0 {
		t.Fatal("no SCF iterations recorded")
	}
	// Warm start: the second step should need no more SCF iterations
	// than a cold start would (loose sanity: at most MaxSCF).
	for _, e := range res.Energies {
		if math.IsNaN(e) {
			t.Fatal("NaN energy in trajectory")
		}
	}
	if res.FinalSystem.NumAtoms() != 8 {
		t.Fatal("atom count changed")
	}
}

// TestRunQMDFewPlaneWavesPerDomain: 27 domains of 10³ points at Ecut 3
// hold 27 plane waves for up to 14 bands, so the eigensolver's expansion
// block [Ψ, R] wants more columns than the space has. Before the block
// was capped this trajectory (velocity seed 4) died in its first MD step
// with "linalg: eigensolver failed to converge".
func TestRunQMDFewPlaneWavesPerDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("QMD is expensive")
	}
	sys := BuildSiC(1)
	sys.InitVelocities(300, rand.New(rand.NewSource(4)))
	cfg := LDCConfig{
		GridN: 18, DomainsPerAxis: 3, BufN: 2, Ecut: 3, Mode: ModeLDC,
		KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxSCF: 100,
		EigenIters: 4, Seed: 1,
	}
	res, err := RunQMD(sys, cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Energies) != 1 || math.IsNaN(res.Energies[0]) {
		t.Fatalf("energies %v", res.Energies)
	}
}

func TestFig5Fig6Drivers(t *testing.T) {
	weak := Fig5WeakScaling()
	if len(weak) == 0 {
		t.Fatal("no weak-scaling points")
	}
	last := weak[len(weak)-1]
	if last.Cores != 786432 || math.Abs(last.Efficiency-0.984) > 0.005 {
		t.Fatalf("weak scaling endpoint: P=%d eff=%.4f", last.Cores, last.Efficiency)
	}
	strong := Fig6StrongScaling()
	lastS := strong[len(strong)-1]
	if math.Abs(lastS.Efficiency-0.803) > 0.01 {
		t.Fatalf("strong scaling endpoint eff=%.4f", lastS.Efficiency)
	}
}

func TestSec52Drivers(t *testing.T) {
	rows := Sec52PaperSpeedups()
	// Paper's quoted values: 2.59/4.18, 2.03/2.89, 1.42/1.69.
	want := [][2]float64{{2.59, 4.18}, {2.03, 2.89}, {1.42, 1.69}}
	for i, r := range rows {
		if math.Abs(r.SpeedupNu2-want[i][0]) > 0.05 || math.Abs(r.SpeedupNu3-want[i][1]) > 0.08 {
			t.Fatalf("row %d: got %.2f/%.2f want %.2f/%.2f",
				i, r.SpeedupNu2, r.SpeedupNu3, want[i][0], want[i][1])
		}
	}
	cx, err := Sec52Crossover()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cx.CrossoverAtoms-125) > 2 {
		t.Fatalf("crossover %g atoms, paper: 125", cx.CrossoverAtoms)
	}
	if math.Abs(cx.Stringent-422) > 5 {
		t.Fatalf("stringent crossover %g, paper: 422", cx.Stringent)
	}
}

func TestTableDrivers(t *testing.T) {
	cells, err := Table1ThreadScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("Table 1 has %d cells, want 9", len(cells))
	}
	t2 := Table2RackFlops()
	if len(t2) != 3 {
		t.Fatal("Table 2 rows")
	}
	for _, r := range t2 {
		if math.Abs(r.TFlops-r.PaperTF)/r.PaperTF > 0.10 {
			t.Fatalf("%d racks: %.1f TF vs paper %.1f", r.Racks, r.TFlops, r.PaperTF)
		}
	}
}

func TestSec2Driver(t *testing.T) {
	rows := Sec2TimeToSolution()
	if len(rows) != 3 {
		t.Fatal("expected 3 rows")
	}
	ldc := rows[2]
	if ldc.Speed/rows[0].Speed < 5000 {
		t.Fatal("LDC should be thousands of times faster than the O(N³) baseline")
	}
}

func TestIODrivers(t *testing.T) {
	sweep, opt := IOGroupSizeSweep()
	if len(sweep) == 0 {
		t.Fatal("empty I/O sweep")
	}
	if opt < 96 || opt > 384 {
		t.Fatalf("optimal group %d, paper: 192", opt)
	}
	ratio, err := CompressionDemo(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1.5 {
		t.Fatalf("compression ratio %.2f", ratio)
	}
}

func TestMeasuredSpeedupsInterpolation(t *testing.T) {
	// Synthetic Fig-7 curves with known exponential decay.
	fig7 := &Fig7Result{
		Points: []Fig7Point{
			{BufferBohr: 1, LDCErr: 1e-2, DCErr: 3e-2},
			{BufferBohr: 2, LDCErr: 1e-3, DCErr: 1e-2},
			{BufferBohr: 3, LDCErr: 1e-4, DCErr: 3e-3},
			{BufferBohr: 4, LDCErr: 1e-5, DCErr: 1e-3},
		},
	}
	rows := MeasuredSpeedups(fig7, 4.0, []float64{1e-3})
	if len(rows) != 1 {
		t.Fatal("row count")
	}
	r := rows[0]
	if r.BufLDC >= r.BufDC {
		t.Fatalf("LDC buffer %.2f should be thinner than DC %.2f", r.BufLDC, r.BufDC)
	}
	if r.SpeedupNu2 <= 1 {
		t.Fatalf("speedup %.2f should exceed 1", r.SpeedupNu2)
	}
	// LDC hits 1e-3 exactly at b=2; DC at b=4.
	if math.Abs(r.BufLDC-2) > 1e-9 || math.Abs(r.BufDC-4) > 1e-9 {
		t.Fatalf("interpolated buffers %.3f / %.3f, want 2 / 4", r.BufLDC, r.BufDC)
	}
}
