package expmatrix

import (
	"fmt"
	"math/rand"

	"ldcdft/internal/atoms"
	"ldcdft/internal/core"
	"ldcdft/internal/serve"
)

// A scenario turns one grid cell into work; exactly one field is set:
// job builds the spec a JobClient runs, compute returns the cell's named
// observables, evaluated in the runner's process. Both are deterministic
// in (base, cell): redoing a cell after a crash reproduces the same
// system, so results are comparable across campaign restarts.
type scenario struct {
	job     func(Base, Cell) (serve.JobSpec, error)
	compute func(Base, Cell) (map[string]float64, error)
}

// scenarios is the registry, keyed by Spec.Scenario.
var scenarios = map[string]scenario{
	"lial-water": {job: lialWaterScenario},
	"ldc-h2":     {job: ldcH2Scenario},

	"weak-scaling":        {compute: weakScaling},
	"strong-scaling":      {compute: strongScaling},
	"thread-scaling":      {compute: threadScaling},
	"rack-flops":          {compute: rackFlops},
	"time-to-solution":    {compute: timeToSolution},
	"ldc-speedup":         {compute: ldcSpeedup},
	"crossover":           {compute: crossover},
	"portability":         {compute: portability},
	"collective-io":       {compute: collectiveIO},
	"buffer-convergence":  {compute: bufferConvergence},
	"ldc-vs-conventional": {compute: ldcVsConventional},
	"streaming-memory":    {compute: streamingMemory},
}

// lialWaterScenario builds the hydrogen-on-demand workload of §6: a
// LinAln nanoparticle in water run under the reactive surrogate-field
// engine. Cell axes: "temp_k" (thermostat target), "pairs" (n in
// LinAln). The builder RNG is seeded from base.Seed plus the pair
// count, so cells of equal size share the same starting structure
// across temperatures — the Fig. 9(a) setup.
func lialWaterScenario(base Base, cell Cell) (serve.JobSpec, error) {
	pairs := int(cell.Get("pairs", float64(base.PairCount)))
	if pairs <= 0 {
		return serve.JobSpec{}, fmt.Errorf("expmatrix: lial-water needs a positive pair count (axis %q or base.pair_count)", "pairs")
	}
	tempK := cell.Get("temp_k", base.TempK)
	if tempK <= 0 {
		return serve.JobSpec{}, fmt.Errorf("expmatrix: lial-water needs a positive temperature (axis %q or base.temp_k)", "temp_k")
	}
	rng := rand.New(rand.NewSource(base.Seed + int64(pairs)))
	sys, err := atoms.BuildLiAlInWater(atoms.LiAlParticleSpec{PairCount: pairs}, rng)
	if err != nil {
		return serve.JobSpec{}, err
	}
	snap := serve.SnapshotSystem(sys)
	return serve.JobSpec{
		Engine: serve.EngineReactive,
		CellL:  snap.CellL,
		Atoms:  snap.Atoms,
		Reactive: &serve.ReactiveSpec{
			TempK:           tempK,
			SampleEvery:     base.SampleEvery,
			ThermostatTauFs: base.ThermostatTauFs,
			Seed:            base.Seed,
		},
		Steps:           base.Steps,
		DtFs:            base.DtFs,
		CheckpointEvery: base.CheckpointEvery,
	}, nil
}

// ldcH2Scenario builds a small H₂-in-a-box LDC-DFT job — the cheap,
// fully converged workload of the buffer-size error scan (the Fig. 7
// study's mechanism at smoke scale). Cell axes: "buf_n" (LDC buffer
// layer count), "domains" (domains per axis).
func ldcH2Scenario(base Base, cell Cell) (serve.JobSpec, error) {
	if base.GridN == 0 {
		base.GridN = 12
	}
	domains := int(cell.Get("domains", float64(base.DomainsPerAxis)))
	if domains == 0 {
		domains = 1
	}
	if base.Ecut == 0 {
		base.Ecut = 4
	}
	cfg := ldcConfig(base, core.ModeLDC, domains, int(cell.Get("buf_n", float64(base.BufN))))
	cfg.MaxSCF, cfg.EnergyTol, cfg.DensityTol = 80, 1e-7, 1e-6
	return serve.JobSpec{
		CellL: 8,
		Atoms: []serve.AtomSpec{
			{Species: "H", Position: [3]float64{3.3, 4, 4}},
			{Species: "H", Position: [3]float64{4.7, 4, 4}},
		},
		Config:          cfg,
		Steps:           base.Steps,
		DtFs:            base.DtFs,
		CheckpointEvery: base.CheckpointEvery,
	}, nil
}
