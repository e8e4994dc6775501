package machine

import (
	"math"
	"testing"
)

func TestTable1ModelMatchesPaper(t *testing.T) {
	// Paper Table 1 (percent of peak):
	//   nodes  1thr   2thr   4thr
	//   4      28.8   41.9   54.3
	//   8      26.4   34.4   45.6
	//   16     24.6   31.0   46.8
	want := map[[2]int]float64{
		{4, 1}: 0.288, {4, 2}: 0.419, {4, 4}: 0.543,
		{8, 1}: 0.264, {8, 2}: 0.344, {8, 4}: 0.456,
		{16, 1}: 0.246, {16, 2}: 0.310, {16, 4}: 0.468,
	}
	cells, err := Table1Model(BlueGeneQ(), 64, []int{4, 8, 16}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		w := want[[2]int{c.Nodes, c.ThreadsPerCore}]
		// The model captures the two trends (threads ↑ → FLOP/s ↑;
		// nodes ↑ at fixed ranks → %peak ↓); match within 25% relative.
		if math.Abs(c.PctPeak-w)/w > 0.25 {
			t.Fatalf("cell (%d nodes, %d threads): model %.1f%%, paper %.1f%%",
				c.Nodes, c.ThreadsPerCore, 100*c.PctPeak, 100*w)
		}
	}
	// Monotonicity in threads for each node count.
	byNode := map[int][]float64{}
	for _, c := range cells {
		byNode[c.Nodes] = append(byNode[c.Nodes], c.GFlops)
	}
	for n, rates := range byNode {
		for i := 1; i < len(rates); i++ {
			if rates[i] <= rates[i-1] {
				t.Fatalf("node %d: FLOP/s not increasing with threads", n)
			}
		}
	}
}

func TestTable1ModelErrors(t *testing.T) {
	if _, err := Table1Model(BlueGeneQ(), 0, []int{4}, []int{1}); err == nil {
		t.Fatal("invalid ranks must fail")
	}
	if _, err := Table1Model(BlueGeneQ(), 64, []int{4}, []int{3}); err == nil {
		t.Fatal("unknown thread count must fail")
	}
}

func TestTimeToSolutionComparison(t *testing.T) {
	// §2: LDC-DFT improves 5,800× over Hasegawa and 62× over
	// Osei-Kuffuor & Fattebert.
	rows := PriorStateOfTheArt()
	ldc := LDCTimeToSolution(BlueGeneQ(), DefaultCalibration())
	if ldc.Speed < 100000 || ldc.Speed > 130000 {
		t.Fatalf("LDC speed %.0f atom·iter/s, paper reports 114,000", ldc.Speed)
	}
	imp1 := ldc.Speed / rows[0].Speed
	imp2 := ldc.Speed / rows[1].Speed
	if imp1 < 5000 || imp1 > 6800 {
		t.Fatalf("improvement over O(N³) baseline %.0f×, paper reports 5,800×", imp1)
	}
	if imp2 < 50 || imp2 > 75 {
		t.Fatalf("improvement over O(N) baseline %.0f×, paper reports 62×", imp2)
	}
}
