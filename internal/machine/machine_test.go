package machine

import (
	"math"
	"testing"
)

func TestBlueGeneQGeometry(t *testing.T) {
	m := BlueGeneQ()
	// §4.1: 48 racks × 1,024 nodes × 16 cores; 204.8 GFLOP/s per node.
	totalCores := m.RacksMax * m.NodesPerRack * m.CoresPerNode
	if totalCores != 786432 {
		t.Fatalf("Mira core count %d, want 786432", totalCores)
	}
	if math.Abs(m.CorePeakGF()-12.8) > 1e-9 {
		t.Fatalf("core peak %g, want 12.8 GF", m.CorePeakGF())
	}
	// Full machine peak: 786432 × 12.8 GF ≈ 10.07 PF.
	if peak := m.PeakGF(totalCores); math.Abs(peak-1.00663296e7) > 1 {
		t.Fatalf("peak %g GF", peak)
	}
}

func TestCommCosts(t *testing.T) {
	m := BlueGeneQ()
	c := NewComm(m, 16*1024)
	// Costs must be positive and grow with payload.
	small := c.AllReduceTime(8)
	big := c.AllReduceTime(1 << 20)
	if small <= 0 || big <= small {
		t.Fatalf("allreduce costs: %g, %g", small, big)
	}
	// Single-node communicator has no network cost.
	c1 := NewComm(m, 16)
	if c1.AllReduceTime(1<<20) != 0 || c1.AllToAllTime(1<<20) != 0 {
		t.Fatal("single node should not pay network cost")
	}
	// ReduceScatter is cheaper than AllReduce for deep trees and large
	// payloads (volume shrinks up the tree, §7).
	deep := NewComm(m, 786432)
	if deep.ReduceScatterTime(1<<24) >= deep.AllReduceTime(1<<24) {
		t.Fatal("tree reduce-scatter should beat flat allreduce")
	}
	// Split arithmetic.
	if got := NewComm(m, 1024).Split(4).Cores; got != 256 {
		t.Fatalf("split gave %d cores", got)
	}
}

func TestWeakScalingMatchesPaper(t *testing.T) {
	// Fig. 5: weak-scaling efficiency 0.984 on 786,432 cores with
	// 64 atoms/core, and a near-flat wall-clock curve.
	m := BlueGeneQ()
	pts := WeakScaling(m, 64, []int{16, 256, 4096, 65536, 786432}, DefaultCalibration())
	last := pts[len(pts)-1]
	if math.Abs(last.Efficiency-0.984) > 0.005 {
		t.Fatalf("weak-scaling efficiency %.4f, paper reports 0.984", last.Efficiency)
	}
	if last.WallClock > pts[0].WallClock*1.05 {
		t.Fatalf("wall clock rose from %g to %g — not flat", pts[0].WallClock, last.WallClock)
	}
	// 50.3M atoms at the largest point.
	if last.Atoms != 50331648 {
		t.Fatalf("largest system %d atoms, want 50331648", last.Atoms)
	}
}

func TestStrongScalingMatchesPaper(t *testing.T) {
	// Fig. 6: 77,889-atom LiAl-water, speedup 12.85 (efficiency 0.803)
	// from 49,152 to 786,432 cores.
	m := BlueGeneQ()
	pts := StrongScaling(m, 77889, 64, []int{49152, 98304, 196608, 393216, 786432}, DefaultCalibration())
	last := pts[len(pts)-1]
	if math.Abs(last.Efficiency-0.803) > 0.01 {
		t.Fatalf("strong-scaling efficiency %.4f, paper reports 0.803", last.Efficiency)
	}
	speedup := pts[0].WallClock / last.WallClock
	if math.Abs(speedup-12.85) > 0.3 {
		t.Fatalf("speedup %.2f, paper reports 12.85", speedup)
	}
	// Efficiency decreases monotonically.
	for i := 1; i < len(pts); i++ {
		if pts[i].Efficiency > pts[i-1].Efficiency+1e-12 {
			t.Fatal("strong-scaling efficiency should decrease")
		}
	}
}

func TestTimeToSolutionAnchor(t *testing.T) {
	// §5.2: one SCF iteration of the 50.3M-atom SiC system on the full
	// machine took 441 s → 114,000 atom·iteration/s.
	m := BlueGeneQ()
	job := JobForAtoms(50331648, 64)
	st := SimulateQMDStep(m, 786432, job, DefaultCalibration())
	perSCF := st.Total / float64(job.SCFPerStep)
	if math.Abs(perSCF-441)/441 > 0.03 {
		t.Fatalf("per-SCF time %.1f s, paper reports 441 s", perSCF)
	}
	speed := st.Speed(job)
	if math.Abs(speed-114000)/114000 > 0.03 {
		t.Fatalf("speed %.0f atom·iter/s, paper reports 114,000", speed)
	}
}

func TestTable2FlopRates(t *testing.T) {
	// Table 2: 113.23 / 226.32 / 5081 TFLOP/s on 1 / 2 / 48 racks.
	m := BlueGeneQ()
	cal := DefaultCalibration()
	want := map[int]float64{1: 113.23, 2: 226.32, 48: 5081}
	for racks, wantTF := range want {
		p := racks * m.NodesPerRack * m.CoresPerNode
		job := JobForAtoms(int64(131072*racks), 8)
		st := SimulateQMDStep(m, p, job, cal)
		gotTF := st.FlopRate() / 1000
		if math.Abs(gotTF-wantTF)/wantTF > 0.10 {
			t.Fatalf("%d racks: %.1f TF, paper reports %.1f TF", racks, gotTF, wantTF)
		}
		pct := st.FlopRate() / m.PeakGF(p)
		if pct < 0.45 || pct > 0.60 {
			t.Fatalf("%d racks: %.1f%% of peak out of the paper's range", racks, 100*pct)
		}
	}
}

func TestXeonPortability(t *testing.T) {
	// §5.4: 217.6 GFLOP/s = 55% of the 396 GF node peak.
	m := XeonE5()
	rate := m.PeakGF(m.CoresPerNode) * m.KernelEff
	if math.Abs(rate-217.8) > 5 {
		t.Fatalf("Xeon model sustained %.1f GF, paper reports 217.6", rate)
	}
}

func TestThreadEfficiencyOrdering(t *testing.T) {
	// Table 1: FLOP/s increases with threads per core.
	e := BlueGeneQ().ThreadEff
	if !(e[1] < e[2] && e[2] < e[4]) {
		t.Fatalf("thread scaling broken: %g, %g, %g", e[1], e[2], e[4])
	}
}

func TestDomainSolveFlopsScaling(t *testing.T) {
	// Per-domain work is independent of total system size (that is the
	// whole point of O(N) DC): doubling atoms doubles total flops.
	j1 := JobForAtoms(1024, 64)
	j2 := JobForAtoms(2048, 64)
	if j1.DomainSolveGFlops() != j2.DomainSolveGFlops() {
		t.Fatal("per-domain work should not depend on system size")
	}
	if j2.Domains != 2*j1.Domains {
		t.Fatal("domains should double")
	}
}
