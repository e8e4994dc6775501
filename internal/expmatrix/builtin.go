package expmatrix

// Builtins are the shipped experiment specs — every table and figure
// EXPERIMENTS.md reports: the computed ones in the order of DESIGN.md
// §3, then the job matrices (Fig. 9). Budgets are laptop-scale (a
// smaller one is a spec file); tolerances encode which paper claims
// each matrix defends and how far the model and the documented
// surrogate substitutions may drift (see DESIGN.md). Host kernel rates
// are timings on a shared box: reported, never gated.
func Builtins() []Spec {
	return []Spec{
		{
			Name:     "fig5-weak-scaling",
			Title:    "Fig. 5 — weak scaling, 64·P-atom SiC on P Blue Gene/Q cores (model)",
			Scenario: "weak-scaling",
			Axes:     []Axis{{Name: "cores", Values: []float64{16, 64, 256, 1024, 4096, 16384, 65536, 262144, 786432}}},
			Validators: []ValidatorSpec{
				{Name: "vs-paper", Kind: KindObservable, Observable: "efficiency", Reference: "paper_efficiency", Tolerance: 0.005},
			},
		},
		{
			Name:     "fig6-strong-scaling",
			Title:    "Fig. 6 — strong scaling, 77,889-atom LiAl-water system (model)",
			Scenario: "strong-scaling",
			Axes:     []Axis{{Name: "cores", Values: []float64{49152, 98304, 196608, 393216, 786432}}},
			Validators: []ValidatorSpec{
				{Name: "vs-paper", Kind: KindObservable, Observable: "efficiency", Reference: "paper_efficiency", Tolerance: 0.01},
			},
		},
		{
			Name:     "sec33-streaming-memory",
			Title:    "§3.3 — memory vs domain count: 64-atom SiC, 8 → 512 domains through 4 solver workspaces, one SCF step (REAL solver)",
			Scenario: "streaming-memory",
			Base:     Base{GridN: 24, BufN: 2, Ecut: 6, Seed: 1},
			Axes:     []Axis{{Name: "domains_per_axis", Values: []float64{2, 4, 6, 8}}},
			Validators: []ValidatorSpec{
				{Name: "bounded-pool", Kind: KindObservable, Observable: "workspaces", Max: 4},
				// One ceiling for every cell is "does not grow with the
				// domain count". Measured 12.2 / 5.7 / 6.3 / 6.1 MiB (±0.1,
				// at any GOMAXPROCS); with one workspace per domain kept
				// resident 16.1 / 13.9 / 20.2 / 22.0.
				{Name: "flat-heap", Kind: KindObservable, Observable: "live_heap_mib", Max: 14},
			},
		},
		{
			Name:     "fig7-buffer-convergence",
			Title:    "Fig. 7 — energy convergence vs buffer thickness, LDC (mode 0) and DC (mode 1) (REAL solver)",
			Scenario: "buffer-convergence",
			Base:     Base{GridN: 24, DomainsPerAxis: 2, Ecut: 4, Seed: 1},
			Axes:     []Axis{{Name: "mode", Values: []float64{0, 1}}, {Name: "buf_n", Values: []float64{1, 2, 3, 4}}},
			MatrixValidators: []ValidatorSpec{
				{Name: "ldc-converge", Kind: KindBufferConverge, Observable: "ldc_energy", Reference: "ref_energy"},
				{Name: "dc-converge", Kind: KindBufferConverge, Observable: "dc_energy", Reference: "ref_energy"},
			},
		},
		{
			Name:     "table1-thread-scaling",
			Title:    "Table 1 — FLOP/s vs threads per core, 512-atom SiC on 64 ranks (model + host kernels)",
			Scenario: "thread-scaling",
			Axes:     []Axis{{Name: "nodes", Values: []float64{4, 8, 16}}, {Name: "threads", Values: []float64{1, 2, 4}}},
			Validators: []ValidatorSpec{
				// The model captures the trends, each cell within 25 %.
				{Name: "vs-paper", Kind: KindObservable, Observable: "pct_peak", Reference: "paper_pct_peak", Min: 0.75, Max: 1.25},
			},
		},
		{
			Name:     "table2-rack-flops",
			Title:    "Table 2 — FLOP/s at rack scale (model)",
			Scenario: "rack-flops",
			Axes:     []Axis{{Name: "racks", Values: []float64{1, 2, 48}}},
			Validators: []ValidatorSpec{
				{Name: "vs-paper", Kind: KindObservable, Observable: "tflops", Reference: "paper_tflops", Min: 0.9, Max: 1.1},
			},
		},
		{
			Name:     "sec2-time-to-solution",
			Title:    "§2 — time-to-solution, atom·SCF-iterations/s: O(N³) and O(N) prior art (rows 0, 1) vs LDC-DFT (row 2) (model)",
			Scenario: "time-to-solution",
			Axes:     []Axis{{Name: "row", Values: []float64{0, 1, 2}}},
			Validators: []ValidatorSpec{
				{Name: "vs-on3", Kind: KindObservable, Observable: "speed", Reference: "on3_speed", Min: 5000},
			},
		},
		{
			Name:     "sec52-speedups",
			Title:    "§5.2 — LDC-over-DC speedup at the paper's CdSe buffers (analysis)",
			Scenario: "ldc-speedup",
			Axes:     []Axis{{Name: "tol_ha", Values: []float64{1e-2, 5e-3, 1e-3}}},
			Validators: []ValidatorSpec{
				{Name: "nu2", Kind: KindObservable, Observable: "speedup_nu2", Reference: "paper_speedup_nu2", Tolerance: 0.05},
				{Name: "nu3", Kind: KindObservable, Observable: "speedup_nu3", Reference: "paper_speedup_nu3", Tolerance: 0.08},
			},
		},
		{
			Name:     "sec52-crossover",
			Title:    "§5.2 — crossover against conventional O(N³) DFT, buffer ×1 and ×1.5 (analysis)",
			Scenario: "crossover",
			Axes:     []Axis{{Name: "buffer_scale", Values: []float64{1, 1.5}}},
			Validators: []ValidatorSpec{
				{Name: "atoms", Kind: KindObservable, Observable: "crossover_atoms", Reference: "paper_crossover_atoms", Tolerance: 2},
				{Name: "atoms-stringent", Kind: KindObservable, Observable: "crossover_atoms", Reference: "paper_crossover_atoms_stringent", Tolerance: 5},
			},
		},
		{
			Name:     "sec55-verification",
			Title:    "§5.5 — verification: LDC-DFT vs conventional O(N³) DFT on Li2Al2 + 2 H₂O (REAL solvers)",
			Scenario: "ldc-vs-conventional",
			Base:     Base{GridN: 24, DomainsPerAxis: 2, Ecut: 3, Seed: 2},
			Axes:     []Axis{{Name: "buf_n", Values: []float64{5}}},
			Validators: []ValidatorSpec{
				// The paper's criterion: 1e-3 a.u. per atom.
				{Name: "energy", Kind: KindObservable, Observable: "energy_diff_per_atom", Max: 1e-3},
				{Name: "force", Kind: KindObservable, Observable: "max_force_diff", Max: 0.05},
			},
		},
		{
			Name:     "sec42-collective-io",
			Title:    "§4.2 — collective I/O: checkpoint write time vs aggregation group size (model), Hilbert-curve snapshot compression (real)",
			Scenario: "collective-io",
			Axes:     []Axis{{Name: "group", Values: []float64{16, 32, 64, 128, 192, 256, 512, 1024, 2048, 4096}}},
			Validators: []ValidatorSpec{
				{Name: "optimum", Kind: KindObservable, Observable: "optimal_group", Min: 96, Max: 384},
				{Name: "compression", Kind: KindObservable, Observable: "compression_ratio", Min: 1.5},
			},
		},
		{
			Name:     "sec54-portability",
			Title:    "§5.4 — performance portability: Blue Gene/Q and Xeon node models + host kernels",
			Scenario: "portability",
			Axes:     []Axis{{Name: "node_peak_gf", Values: []float64{204.8, 396}}},
			Validators: []ValidatorSpec{
				{Name: "vs-paper", Kind: KindObservable, Observable: "node_gflops", Reference: "paper_node_gflops", Tolerance: 5},
			},
		},
		{
			Name:     "fig9a-arrhenius",
			Title:    "Fig. 9(a) — H₂ production Arrhenius sweep (reactive MD)",
			Scenario: "lial-water",
			Base: Base{
				PairCount: 20,
				Steps:     6000,
				Seed:      3,
			},
			Axes: []Axis{
				{Name: "temp_k", Values: []float64{300, 600, 1500}},
			},
			Validators: []ValidatorSpec{
				{Kind: KindTempTrack, Tolerance: 0.35},
				{Kind: KindCensusH2, Min: 1},
				{Kind: KindRateRange, Min: 1e10, Max: 1e14},
				{Kind: KindRDFFirstPeak, SpeciesA: "O", SpeciesB: "H", Target: 1.81, Tolerance: 0.5},
			},
			MatrixValidators: []ValidatorSpec{
				// The paper's activation energy is 0.068 eV; the reactive
				// surrogate reproduces the weakly-activated regime at
				// 0.04±0.02 eV (EXPERIMENTS.md), so the gate is "same
				// qualitative barrier" — within 0.05 eV of the paper.
				{Kind: KindArrhenius, Target: 0.068, Tolerance: 0.05},
			},
		},
		{
			Name:     "lial-size-grid",
			Title:    "LiAl composition grid — rate and census vs size × temperature",
			Scenario: "lial-water",
			Base: Base{
				Steps: 2400,
				Seed:  4,
			},
			Axes: []Axis{
				{Name: "pairs", Values: []float64{10, 20}},
				{Name: "temp_k", Values: []float64{600, 1500}},
			},
			Validators: []ValidatorSpec{
				{Kind: KindTempTrack, Tolerance: 0.35},
				{Kind: KindCensusH2, Min: 1},
				{Kind: KindRateRange, Min: 1e10, Max: 1e14},
			},
			MatrixValidators: []ValidatorSpec{{Kind: KindArrhenius, Target: 0.068, Tolerance: 0.06}},
		},
		{
			Name:     "ldc-buffer-scan",
			Title:    "LDC buffer-size error scan (Fig. 7 mechanism at smoke scale)",
			Scenario: "ldc-h2",
			Base: Base{
				GridN:          16,
				DomainsPerAxis: 2,
				Ecut:           4,
				Steps:          2,
				Seed:           1,
			},
			Axes: []Axis{
				{Name: "buf_n", Values: []float64{0, 1, 2}},
			},
			Validators: []ValidatorSpec{
				// Over a 2-step budget the potential energy swings with
				// the H–H vibration (~0.25 Ha/step measured); the bound
				// gates blow-ups and NaNs, not thermodynamic drift.
				{Kind: KindEnergyDrift, Max: 0.5},
			},
			MatrixValidators: []ValidatorSpec{
				// Final energy must approach the largest-buffer reference
				// as the buffer grows (Fig. 7's exponential convergence),
				// with a small slack for the tiny grid.
				{Kind: KindBufferConverge, Tolerance: 1e-3},
			},
		},
	}
}

// Builtin returns the shipped spec with the given name.
func Builtin(name string) (Spec, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
