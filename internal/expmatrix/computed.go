package expmatrix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ldcdft/internal/atoms"
	"ldcdft/internal/core"
	"ldcdft/internal/dc"
	"ldcdft/internal/fft"
	"ldcdft/internal/geom"
	"ldcdft/internal/linalg"
	"ldcdft/internal/machine"
	"ldcdft/internal/perf"
	"ldcdft/internal/qio"
	"ldcdft/internal/scf"
)

// The computed scenarios: one per table or figure of DESIGN.md §3 that is
// not a job array. Each emits its own number beside the paper's ("tflops",
// "paper_tflops") in the cells the paper reports, for an `observable`
// validator to compare; the paper's values are typed here and nowhere
// else. An axis value outside a model's range yields non-finite
// observables, which fail the cell (run.go).

// weakScaling models Fig. 5: 64·P-atom SiC on P Blue Gene/Q cores (axis
// "cores"), efficiency against the figure's first point, P = 16.
func weakScaling(_ Base, cell Cell) (map[string]float64, error) {
	p := int(cell["cores"])
	pt := machine.WeakScaling(machine.BlueGeneQ(), 64, []int{16, p}, machine.DefaultCalibration())[1]
	obs := map[string]float64{"atoms": float64(pt.Atoms), "s_per_step": pt.WallClock, "efficiency": pt.Efficiency}
	if p == 786432 {
		obs["paper_efficiency"] = 0.984
	}
	return obs, nil
}

// strongScaling models Fig. 6: the 77,889-atom LiAl-water system on P
// cores (axis "cores"), speedup and efficiency against P = 49,152.
func strongScaling(_ Base, cell Cell) (map[string]float64, error) {
	p := int(cell["cores"])
	pts := machine.StrongScaling(machine.BlueGeneQ(), 77889, 64, []int{49152, p}, machine.DefaultCalibration())
	obs := map[string]float64{
		"s_per_step": pts[1].WallClock,
		"speedup":    pts[0].WallClock / pts[1].WallClock,
		"efficiency": pts[1].Efficiency,
	}
	if p == 786432 {
		obs["paper_speedup"], obs["paper_efficiency"] = 12.85, 0.803
	}
	return obs, nil
}

// threadScaling is Table 1: the modelled FLOP/s of 512-atom SiC on 64
// ranks over "nodes" × "threads" per core, beside the paper's percent of
// peak and this host's kernel rate at that many workers.
func threadScaling(_ Base, cell Cell) (map[string]float64, error) {
	paper := map[[2]int]float64{
		{4, 1}: 28.8, {4, 2}: 41.9, {4, 4}: 54.3,
		{8, 1}: 26.4, {8, 2}: 34.4, {8, 4}: 45.6,
		{16, 1}: 24.6, {16, 2}: 31.0, {16, 4}: 46.8,
	}
	// The model normalises against the densest column: model the grid.
	grid, err := machine.Table1Model(machine.BlueGeneQ(), 64, []int{4, 8, 16}, []int{1, 2, 4})
	if err != nil {
		return nil, err
	}
	nodes, threads := int(cell["nodes"]), int(cell["threads"])
	for _, c := range grid {
		if c.Nodes == nodes && c.ThreadsPerCore == threads {
			return map[string]float64{
				"gflops":         c.GFlops,
				"pct_peak":       100 * c.PctPeak,
				"paper_pct_peak": paper[[2]int{nodes, threads}],
				"host_gflops":    kernelRate(threads, 100*time.Millisecond),
			}, nil
		}
	}
	return nil, fmt.Errorf("expmatrix: Table 1 has no cell for %d nodes × %d threads", nodes, threads)
}

// rackFlops models Table 2: sustained FLOP/s of 131,072 atoms per rack
// on "racks" Blue Gene/Q racks.
func rackFlops(_ Base, cell Cell) (map[string]float64, error) {
	racks := int(cell["racks"])
	m := machine.BlueGeneQ()
	p := racks * m.NodesPerRack * m.CoresPerNode
	job := machine.JobForAtoms(int64(131072*racks), 8)
	st := machine.SimulateQMDStep(m, p, job, machine.DefaultCalibration())
	obs := map[string]float64{
		"cores":    float64(p),
		"atoms":    float64(job.Atoms),
		"tflops":   st.FlopRate() / 1000,
		"pct_peak": 100 * st.FlopRate() / m.PeakGF(p),
	}
	if paper, ok := map[int][2]float64{1: {113.23, 53.99}, 2: {226.32, 53.96}, 48: {5081, 50.46}}[racks]; ok {
		obs["paper_tflops"], obs["paper_pct_peak"] = paper[0], paper[1]
	}
	return obs, nil
}

// timeToSolution is the §2 comparison in atom·SCF-iterations per second
// (axis "row": 0 the O(N³) and 1 the O(N) prior state of the art, 2 this
// work on the full machine model, beside the baselines and the paper's
// 441 s per SCF iteration for 50.3M atoms).
func timeToSolution(_ Base, cell Cell) (map[string]float64, error) {
	rows := append(machine.PriorStateOfTheArt(), machine.LDCTimeToSolution(machine.BlueGeneQ(), machine.DefaultCalibration()))
	i := int(cell.Get("row", -1))
	if i < 0 || i >= len(rows) {
		return nil, fmt.Errorf("expmatrix: time-to-solution has rows 0–%d (axis %q)", len(rows)-1, "row")
	}
	obs := map[string]float64{"atoms": float64(rows[i].Atoms), "speed": rows[i].Speed}
	if i == 2 {
		obs["paper_speed"] = 114000
		obs["on3_speed"], obs["on_speed"] = rows[0].Speed, rows[1].Speed
		obs["s_per_scf"], obs["paper_s_per_scf"] = float64(rows[i].Atoms)/rows[i].Speed, 441
	}
	return obs, nil
}

// ldcSpeedup evaluates the §5.2 speedup [(l+2b_DC)/(l+2b_LDC)]^{3ν} from
// the paper's buffers for 512-atom CdSe (l = 11.416 a.u.) at tolerance
// "tol_ha". The 5e-3 row uses the buffers quoted in §5.2; the 1e-2 and
// 1e-3 buffers are back-solved from the paper's quoted speedups under
// the Eq. (1) exponential decay b(tol) = λ·ln(a/tol) anchored at the
// 5e-3 row (λ_DC = 2.04, λ_LDC = 2.28 a.u.).
func ldcSpeedup(_ Base, cell Cell) (map[string]float64, error) {
	row, ok := map[float64][4]float64{ // b_DC, b_LDC, paper ν=2, paper ν=3
		1e-2: {3.315, 1.991, 2.59, 4.18},
		5e-3: {4.73, 3.57, 2.03, 2.89},
		1e-3: {8.016, 7.235, 1.42, 1.69},
	}[cell["tol_ha"]]
	if !ok {
		return nil, fmt.Errorf("expmatrix: the paper quotes no buffers at tolerance %g Ha", cell["tol_ha"])
	}
	const l = 11.416
	return map[string]float64{
		"b_dc": row[0], "b_ldc": row[1],
		"speedup_nu2": dc.Speedup(l, row[0], row[1], 2), "paper_speedup_nu2": row[2],
		"speedup_nu3": dc.Speedup(l, row[0], row[1], 3), "paper_speedup_nu3": row[3],
	}, nil
}

// crossover is the §5.2 DC vs O(N³) crossover for the paper's CdSe
// reference (b = 3.57 a.u. at 5e-3 Ha, 512 atoms in 45.664 a.u.), the
// buffer scaled by "buffer_scale" — 1, and the stringent 1.5.
func crossover(_ Base, cell Cell) (map[string]float64, error) {
	scale := cell.Get("buffer_scale", 1)
	b := 3.57 * scale
	l, err := dc.CrossoverLength(b, 2)
	if err != nil {
		return nil, err
	}
	n, err := dc.CrossoverAtoms(b, 2, 512, 45.664)
	if err != nil {
		return nil, err
	}
	obs := map[string]float64{"buffer_bohr": b, "crossover_l": l, "crossover_atoms": n}
	switch scale {
	case 1:
		obs["paper_crossover_l"], obs["paper_crossover_atoms"] = 28.56, 125
	case 1.5:
		obs["paper_crossover_atoms_stringent"] = 422
	}
	return obs, nil
}

// portability is the §5.4 check: the sustained node rate of the same
// kernel suite under the Blue Gene/Q and Xeon node models (selected by
// "node_peak_gf": 204.8 or 396), beside this host's measured rate.
func portability(_ Base, cell Cell) (map[string]float64, error) {
	for _, m := range []*machine.Machine{machine.BlueGeneQ(), machine.XeonE5()} {
		if m.NodePeakGF != cell["node_peak_gf"] {
			continue
		}
		obs := map[string]float64{
			"node_gflops": m.PeakGF(m.CoresPerNode) * m.KernelEff,
			"host_gflops": kernelRate(0, 150*time.Millisecond),
		}
		if m.NodePeakGF == 396 {
			obs["paper_node_gflops"] = 217.6
		}
		return obs, nil
	}
	return nil, fmt.Errorf("expmatrix: no node model with a %g GF peak", cell["node_peak_gf"])
}

// kernelRate measures the sustained GFLOP/s of this build's core kernels
// (the solver's complex GEMM, CGemm, + 3-D FFT) on `workers` threads
// (0 = as is) for roughly the given duration. It differences the
// process-wide FLOP counter and never resets it: an in-process
// manager's jobs count on it.
func kernelRate(workers int, duration time.Duration) float64 {
	if workers > 0 {
		old := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(old)
	}
	rng := rand.New(rand.NewSource(42))
	const n, nb = 256, 64
	a := linalg.NewCMatrix(n, n)
	b := linalg.NewCMatrix(n, nb)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for i := range b.Data {
		b.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	c := linalg.NewCMatrix(n, nb)
	plan := fft.NewPlan3(32, 32, 32)
	sig := make([]complex128, plan.Size())
	for i := range sig {
		sig[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	before := perf.Global.Total()
	start := time.Now()
	for time.Since(start) < duration {
		linalg.CGemm(a, b, c)
		plan.Forward(sig)
		plan.Inverse(sig)
	}
	return float64(perf.Global.Total()-before) / time.Since(start).Seconds() / 1e9
}

// collectiveIO is the §4.2 study: the modelled write time of a
// full-machine checkpoint at aggregation group size "group" and the
// model's optimum, beside what the real Hilbert-curve codec (ref. [65])
// makes of a 512-atom SiC snapshot.
func collectiveIO(_ Base, cell Cell) (map[string]float64, error) {
	const ranks, bytes = 786432, 64e9
	m := qio.DefaultIOModel()
	snap, err := qio.Compress(atoms.BuildSiC(4), 12)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"write_s":             m.WriteTime(ranks, int(cell["group"]), bytes),
		"optimal_group":       float64(m.OptimalGroupSize(ranks, bytes)),
		"paper_optimal_group": 192,
		"compression_ratio":   snap.Ratio(),
	}, nil
}

// ldcConfig is the SCF setup the real-solver studies share; grid, cutoff
// and seed are the spec's.
func ldcConfig(base Base, mode core.Mode, domains, bufN int) core.Config {
	return core.Config{
		GridN: base.GridN, DomainsPerAxis: domains, BufN: bufN, Ecut: base.Ecut, Mode: mode,
		KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxSCF: 100, EigenIters: 4, Seed: base.Seed,
	}
}

// solveLDC solves the LDC-DFT (or DC) ground state.
func solveLDC(sys *atoms.System, base Base, mode core.Mode, domains, bufN int) (*core.Engine, float64, error) {
	eng, err := core.NewEngine(sys, ldcConfig(base, mode, domains, bufN))
	if err != nil {
		return nil, 0, err
	}
	res, err := eng.Solve()
	if err != nil {
		return nil, 0, err
	}
	return eng, res.Energy, nil
}

// fig7Refs memoises the buffer study's single-domain reference energy, a
// pure function of base: solved once per campaign, never if all is cached.
var fig7Refs = struct {
	sync.Mutex
	energy map[Base]float64
}{energy: map[Base]float64{}}

// bufferConvergence is Fig. 7 with the real engines: the SiC cell split
// into base.domains_per_axis³ domains with buffer "buf_n", solved by LDC
// ("mode" 0) or the original DC (1), against the single-domain solve
// (energies in Hartree, errors in Hartree per atom).
func bufferConvergence(base Base, cell Cell) (map[string]float64, error) {
	name, ok := map[float64]string{float64(core.ModeLDC): "ldc", float64(core.ModeDC): "dc"}[cell["mode"]]
	if !ok {
		return nil, fmt.Errorf("expmatrix: buffer-convergence axis %q is 0 (LDC) or 1 (DC), got %g", "mode", cell["mode"])
	}
	sys := atoms.BuildSiC(1) // the paper uses 512-atom CdSe; same domain geometry l = 2·h·CoreN
	fig7Refs.Lock()
	ref, ok := fig7Refs.energy[base]
	if !ok {
		var err error
		if _, ref, err = solveLDC(sys, base, core.ModeLDC, 1, 0); err != nil {
			fig7Refs.Unlock()
			return nil, fmt.Errorf("expmatrix: Fig. 7 reference: %w", err)
		}
		fig7Refs.energy[base] = ref
	}
	fig7Refs.Unlock()
	bufN := int(cell["buf_n"])
	_, energy, err := solveLDC(sys, base, core.Mode(cell["mode"]), base.DomainsPerAxis, bufN)
	if err != nil {
		return nil, fmt.Errorf("expmatrix: Fig. 7 %s buf %d: %w", name, bufN, err)
	}
	return map[string]float64{
		"buffer_bohr":    float64(bufN) * sys.Cell.L / float64(base.GridN),
		"ref_energy":     ref,
		name + "_energy": energy,
		name + "_err":    math.Abs(energy-ref) / float64(sys.NumAtoms()),
	}, nil
}

// ldcVsConventional is the §5.5 verification: the LDC-DFT engine (buffer
// "buf_n") against the conventional O(N³) code on one configuration,
// scaled from the paper's Li30Al30 + 182 H₂O to Li2Al2 + 2 H₂O. Energies
// per atom in Hartree, forces in Hartree/Bohr. The paper's quantity of
// interest, the H₂ count along a trajectory, is not measured: this is a
// single frame.
func ldcVsConventional(base Base, cell Cell) (map[string]float64, error) {
	sys := &atoms.System{Cell: geom.Cell{L: 13.2}}
	// Li2Al2 mini-cluster at B32-like spacing (≈5.1 Bohr Li-Al).
	center := geom.Vec3{X: 6.6, Y: 6.6, Z: 6.6}
	const d = 5.1
	sys.Atoms = append(sys.Atoms,
		atoms.Atom{Species: atoms.Lithium, Position: center.Add(geom.Vec3{X: d / 2})},
		atoms.Atom{Species: atoms.Lithium, Position: center.Add(geom.Vec3{X: -d / 2})},
		atoms.Atom{Species: atoms.Aluminum, Position: center.Add(geom.Vec3{Y: d / 2})},
		atoms.Atom{Species: atoms.Aluminum, Position: center.Add(geom.Vec3{Y: -d / 2})},
	)
	// Two waters at realistic geometry (O-H 1.83 Bohr, 104.5°) nearby.
	for _, p := range []geom.Vec3{{X: 6.6, Y: 6.6, Z: 11.2}, {X: 6.6, Y: 6.6, Z: 2.0}} {
		sys.Atoms = append(sys.Atoms,
			atoms.Atom{Species: atoms.Oxygen, Position: p},
			atoms.Atom{Species: atoms.Hydrogen, Position: p.Add(geom.Vec3{X: 1.447, Z: 1.12})},
			atoms.Atom{Species: atoms.Hydrogen, Position: p.Add(geom.Vec3{X: -1.447, Z: 1.12})},
		)
	}

	eng, eLDC, err := solveLDC(sys, base, core.ModeLDC, base.DomainsPerAxis, int(cell["buf_n"]))
	if err != nil {
		return nil, fmt.Errorf("expmatrix: verification LDC solve: %w", err)
	}
	ldcForces, err := eng.Forces()
	if err != nil {
		return nil, err
	}
	convRes, err := scf.Solve(sys, scf.Config{
		GridN: base.GridN, Ecut: base.Ecut, KT: 0.05, MixAlpha: 0.3, Anderson: true,
		MaxIter: 100, EigenIters: 4, Seed: base.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("expmatrix: verification conventional solve: %w", err)
	}
	n := float64(sys.NumAtoms())
	var sum1, sum2, maxd float64
	for i := range ldcForces {
		sum1 += ldcForces[i].Norm2()
		sum2 += convRes.Forces[i].Norm2()
		maxd = math.Max(maxd, ldcForces[i].Sub(convRes.Forces[i]).Norm())
	}
	return map[string]float64{
		"atoms":                n,
		"energy_per_atom_ldc":  eLDC / n,
		"energy_per_atom_conv": convRes.Energy / n,
		"energy_diff_per_atom": math.Abs(eLDC/n - convRes.Energy/n),
		"force_rms_ldc":        math.Sqrt(sum1 / n),
		"force_rms_conv":       math.Sqrt(sum2 / n),
		"max_force_diff":       maxd,
	}, nil
}

// streamingMemory measures the §3.3 design point behind Fig. 5's flat
// per-node cost: the 64-atom SiC cell cut into "domains_per_axis"³
// domains (8 → 512) that stream through 4 solver workspaces for one SCF
// step. live_heap_mib is the heap the open engine then retains — set by
// the workspace count, where an engine holding every domain's solver
// resident grows with the domain count.
func streamingMemory(base Base, cell Cell) (map[string]float64, error) {
	// Two collections: the first only moves sync.Pool scratch (this
	// cell's, or an earlier one's) to the pools' victim caches.
	heapMiB := func() float64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}
	cfg := ldcConfig(base, core.ModeLDC, int(cell["domains_per_axis"]), base.BufN)
	cfg.Workers = 4
	before := heapMiB()
	eng, err := core.NewEngine(atoms.BuildSiC(2), cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if _, _, err := eng.SCFStep(); err != nil {
		return nil, err
	}
	live := heapMiB() - before // eng is used below, so still reachable here
	return map[string]float64{
		"live_heap_mib": live,
		"domains":       float64(eng.NumDomains()),
		"occupied":      float64(eng.OccupiedDomains()),
		"workspaces":    float64(eng.ResidentWorkspaces()),
		"dof":           float64(eng.DegreesOfFreedom()),
	}, nil
}
