package machine

import "fmt"

// Table1Cell is one cell of the paper's Table 1: the sustained FLOP/s of
// the 512-atom SiC benchmark for a given node count and threads/core.
type Table1Cell struct {
	Nodes          int
	ThreadsPerCore int
	GFlops         float64
	PctPeak        float64
}

// Table1Model reproduces the structure of Table 1 on the given machine:
// FLOP/s rises with threads per core (dual issue at 2, latency hiding at
// 4) and the fraction of peak falls as the fixed 64-rank job spreads over
// more nodes (fewer ranks per node leave pipelines idle).
//
// The granularity factor rpn/(rpn+1) is calibrated against the paper's
// 1-thread column (28.8% → 26.4% → 24.6% for 16 → 8 → 4 ranks/node).
func Table1Model(m *Machine, totalRanks int, nodes []int, threads []int) ([]Table1Cell, error) {
	if totalRanks < 1 {
		return nil, fmt.Errorf("machine: invalid rank count %d", totalRanks)
	}
	var out []Table1Cell
	// Normalize so the densest-packed node count with max threads matches
	// the machine's kernel efficiency envelope.
	minNodes := nodes[0]
	for _, n := range nodes {
		if n < minNodes {
			minNodes = n
		}
	}
	rpnRef := float64(totalRanks) / float64(minNodes)
	gRef := rpnRef / (rpnRef + 1)
	for _, n := range nodes {
		rpn := float64(totalRanks) / float64(n)
		gran := rpn / (rpn + 1) / gRef
		for _, t := range threads {
			eff, ok := m.ThreadEff[t]
			if !ok {
				return nil, fmt.Errorf("machine: no thread efficiency for %d threads", t)
			}
			// Pin the (minNodes, maxThreads) cell near the paper's 54.3%.
			scale := 0.543 / m.ThreadEff[m.ThreadsPerCore]
			pct := eff * gran * scale
			out = append(out, Table1Cell{
				Nodes:          n,
				ThreadsPerCore: t,
				GFlops:         pct * m.NodePeakGF * float64(n),
				PctPeak:        pct,
			})
		}
	}
	return out, nil
}

// TimeToSolutionRow is one row of the §2 comparison: a code's speed in
// atom·SCF-iterations per second.
type TimeToSolutionRow struct {
	Atoms int64
	Speed float64 // atom·iteration/s
}

// PriorStateOfTheArt returns the two baselines quoted in §2.
func PriorStateOfTheArt() []TimeToSolutionRow {
	return []TimeToSolutionRow{
		// Hasegawa et al., O(N³) real-space DFT (2011 Gordon Bell), K computer.
		{Atoms: 107292, Speed: 19.7}, // 5,456 s per SCF iteration
		// Osei-Kuffuor & Fattebert, O(N) DFT, 23,328 Blue Gene/Q cores.
		{Atoms: 101952, Speed: 1850}, // ~275 s/QMD step at 5 SCF/step
	}
}

// LDCTimeToSolution returns this work's row from the machine model: LDC-DFT
// on 786,432 Blue Gene/Q cores.
func LDCTimeToSolution(m *Machine, cal Calibration) TimeToSolutionRow {
	job := JobForAtoms(50331648, 64)
	st := SimulateQMDStep(m, 786432, job, cal)
	return TimeToSolutionRow{Atoms: job.Atoms, Speed: st.Speed(job)}
}
