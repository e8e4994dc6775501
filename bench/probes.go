package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	qmd "ldcdft"
	"ldcdft/internal/atoms"
	"ldcdft/internal/cache"
	"ldcdft/internal/core"
	"ldcdft/internal/dc"
	"ldcdft/internal/fft"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/linalg"
	"ldcdft/internal/md"
	"ldcdft/internal/multigrid"
	"ldcdft/internal/pw"
	"ldcdft/internal/qio"
	"ldcdft/internal/reactive"
	"ldcdft/internal/scf"
	"ldcdft/internal/serve"
)

// probeValue is the median seconds per call over N timed calls into a
// layer's exported functions (or a count or size, with N = 0).
type probeValue struct {
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
}

// Probe sets, each run in a child of its own.
const (
	probesLayers = "layers" // every in-process probe
	probesSolve  = "solve"  // one core.Engine.Solve, run at GOMAXPROCS 1 and nproc
)

// runProbes runs the probe children and returns every probe metric.
func runProbes(o runOpts) (map[string]probeValue, error) {
	args := func(set string) []string {
		a := []string{"--probes", set, "--seed", fmt.Sprint(o.seed)}
		if o.toy {
			a = append(a, "--toy")
		}
		return a
	}
	layers, _, err := spawn(o.out, args(probesLayers), nil)
	if err != nil {
		return nil, err
	}
	out := layers.Layer
	// The plain single-threaded baseline against the parallel run: the
	// same Solve with one and with all processors.
	p1, _, err := spawn(o.out, args(probesSolve), []string{"GOMAXPROCS=1"})
	if err != nil {
		return nil, err
	}
	p2, _, err := spawn(o.out, args(probesSolve), nil)
	if err != nil {
		return nil, err
	}
	t1, t2 := p1.Layer["core.solve_s"], p2.Layer["core.solve_s"]
	out["core.solve_s.p1"], out["core.solve_s.p2"] = t1, t2
	out["core.parallel_eff"] = probeValue{Value: t1.Value / (float64(runtime.NumCPU()) * t2.Value)}
	return out, nil
}

// prober collects probe results.
type prober struct {
	out  map[string]probeValue
	reps int // timed calls of a light probe
}

// time records the median wall time of n calls of f after one untimed
// warm-up call. prep, when not nil, runs untimed before every call.
func (p *prober) time(name string, n int, prep, f func() error) error {
	walls := make([]float64, 0, n)
	for i := -1; i < n; i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if i >= 0 {
			walls = append(walls, time.Since(t0).Seconds())
		}
	}
	p.out[name] = probeValue{Value: median(walls), N: n}
	return nil
}

func (p *prober) count(name string, v float64) { p.out[name] = probeValue{Value: v} }

func runProbeSet(set string, c *childCtx) (map[string]probeValue, error) {
	p := &prober{out: map[string]probeValue{}, reps: 20}
	if c.toy {
		p.reps = 2
	}
	var err error
	switch set {
	case probesSolve:
		err = p.solve(c)
	case probesLayers:
		for _, f := range []func(*childCtx) error{p.domainLayers, p.globalLayers, p.coreLayers, p.mdLayers, p.ioLayers, p.leaseLayer} {
			if err = f(c); err != nil {
				break
			}
		}
	default:
		err = fmt.Errorf("unknown probe set %q", set)
	}
	return p.out, err
}

// noErr adapts a call that cannot fail.
func noErr(f func()) func() error { return func() error { f(); return nil } }

// domainShape is the local problem of one occupied domain of a qmd-*
// workload: what scf, pw, fft and linalg see on every domain visit.
type domainShape struct {
	n         int // local grid points per axis
	l         float64
	ecut      float64
	species   []*atoms.Species
	positions []geom.Vec3
	bands     int
}

func domainOf(p qmdParams, seed int64) (domainShape, error) {
	sys := sic8System(seed)
	doms, err := grid.Decompose(grid.New(p.GridN, sys.Cell.L), p.Domains, 2)
	if err != nil {
		return domainShape{}, err
	}
	das, err := dc.AssignAtoms(sys, doms)
	if err != nil {
		return domainShape{}, err
	}
	for _, da := range das {
		if len(da.Species) == 0 {
			continue
		}
		lg := da.Domain.LocalGrid()
		return domainShape{
			n: lg.N, l: lg.L, ecut: p.Ecut, species: da.Species, positions: da.Local,
			// core's band count for a domain: valence/2 states plus 20% + 4.
			bands: int(math.Ceil(da.Valence()/2*1.2)) + 4,
		}, nil
	}
	return domainShape{}, fmt.Errorf("no occupied domain")
}

// engine builds the domain's solver the way core streams a domain
// through a workspace.
func (d domainShape) engine() (*scf.Engine, error) {
	eng, err := scf.NewWorkspaceEngine(d.l, d.n, d.ecut, d.bands)
	if err != nil {
		return nil, err
	}
	if err := eng.Retarget(d.species, d.positions, d.bands); err != nil {
		return nil, err
	}
	if err := eng.SeedRandom(1); err != nil {
		return nil, err
	}
	eng.EigenIters = 4
	eng.SetEffectivePotential(eng.Vps)
	return eng, nil
}

// domainLayers probes fft, pw, linalg and scf at both domain shapes.
func (p *prober) domainLayers(c *childCtx) error {
	// "g12" is a qmd-sic8 domain, "g10" a qmd-27dom one.
	for _, w := range []struct {
		tag string
		p   qmdParams
	}{{"g12", qmdSic8(c.toy)}, {"g10", qmd27dom(c.toy)}} {
		d, err := domainOf(w.p, c.seed)
		if err != nil {
			return err
		}
		eng, err := d.engine()
		if err != nil {
			return err
		}
		size := d.n * d.n * d.n
		batch := make([]complex128, d.bands*size)
		rng := rand.New(rand.NewSource(c.seed))
		for i := range batch {
			batch[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		plan := fft.Cached3(d.n, d.n, d.n)
		p.time("fft.plan3_batch_s."+w.tag, p.reps, nil, noErr(func() {
			plan.ForwardBatch(batch, d.bands)
			plan.InverseBatch(batch, d.bands)
		}))
		hpsi := linalg.NewCMatrix(eng.Psi.Rows, eng.Psi.Cols)
		p.time("pw.apply_all_s."+w.tag, p.reps, nil, noErr(func() { eng.Ham.ApplyAllInto(eng.Psi, hpsi) }))
		work := eng.Psi.Clone()
		if err := p.time("pw.orthonormalize_s."+w.tag, p.reps,
			noErr(func() { copy(work.Data, hpsi.Data) }),
			func() error { return pw.Orthonormalize(work) }); err != nil {
			return err
		}
		occ := make([]float64, d.bands)
		for i := range occ[:d.bands/2] {
			occ[i] = 2
		}
		p.time("pw.density_s."+w.tag, p.reps, nil, noErr(func() { pw.Density(eng.Basis, eng.Psi, occ) }))
		if err := p.time("scf.diagonalize_s."+w.tag, p.reps, nil, func() error {
			fresh, err := d.engine()
			if err != nil {
				return err
			}
			_, err = fresh.Diagonalize()
			return err
		}); err != nil {
			return err
		}
		if w.tag != "g12" {
			continue
		}
		// The dense kernels of the eigensolver at the g12 sizes: Np x nb
		// blocks and nb x nb subspace matrices.
		var overlap *linalg.CMatrix
		p.time("linalg.cgemm_ct_s", p.reps, nil, noErr(func() { overlap = linalg.CGemmCT(eng.Psi, hpsi) }))
		gram := linalg.CGemmCT(hpsi, hpsi)
		if err := p.time("linalg.cholesky_s", p.reps, nil, func() error {
			_, err := linalg.CholeskyHermitian(gram)
			return err
		}); err != nil {
			return err
		}
		herm := linalg.NewCMatrix(d.bands, d.bands)
		for i := 0; i < d.bands; i++ {
			for j := 0; j < d.bands; j++ {
				herm.Set(i, j, (overlap.At(i, j)+complex(real(overlap.At(j, i)), -imag(overlap.At(j, i))))/2)
			}
		}
		if err := p.time("linalg.hermitian_eigen_s", p.reps, nil, func() error {
			_, _, err := linalg.HermitianEigen(herm)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// globalLayers probes what runs once per SCF iteration on the global
// grid: the multigrid Hartree solve, the real FFT, and the extraction
// and accumulation of every domain of the 27-domain decomposition.
func (p *prober) globalLayers(c *childCtx) error {
	sys := sic8System(c.seed)
	for _, w := range []struct {
		tag string
		p   qmdParams
	}{{"g16", qmdSic8(c.toy)}, {"g18", qmd27dom(c.toy)}} {
		n := w.p.GridN
		eng, err := core.NewEngine(sys, ldcConfig(w.p))
		if err != nil {
			return err
		}
		rho := eng.ExportDensity()
		eng.Close()

		rp := fft.CachedR3(n, n, n)
		half := make([]complex128, rp.HSize())
		back := make([]float64, rp.Size())
		p.time("fft.rplan3_s."+w.tag, p.reps, nil, noErr(func() {
			rp.Forward(rho.Data, half)
			rp.Inverse(half, back)
		}))

		mg, err := multigrid.NewSolver(rho.Grid, multigrid.Options{Tol: 1e-8})
		if err != nil {
			return err
		}
		var cycles int
		if err := p.time("multigrid.solve_poisson_s."+w.tag, p.reps, nil, func() error {
			_, res, err := mg.SolvePoisson(rho)
			cycles = res.Cycles
			return err
		}); err != nil {
			return err
		}
		if w.tag == "g16" {
			p.count("multigrid.vcycles", float64(cycles))
			continue
		}
		doms, err := grid.Decompose(rho.Grid, w.p.Domains, 2)
		if err != nil {
			return err
		}
		local := grid.NewField(doms[0].LocalGrid())
		sum := grid.NewField(rho.Grid)
		p.time("grid.extract_accumulate_s", p.reps, nil, noErr(func() {
			for _, d := range doms {
				d.ExtractInto(rho, local)
				d.AccumulateCore(local, sum)
			}
		}))
	}
	return nil
}

// stream64 is the scalebench configuration: SiC(2), 64 atoms, 24^3
// grid, 4^3 domains, Ecut 6 — many more domains than workers. The
// 64-atom case does not reach SCF convergence at this buffer, so it
// appears as a per-step probe and not as a workload.
func stream64(toy bool, spill string) (*qmd.System, qmd.LDCConfig) {
	cfg := qmd.LDCConfig{
		GridN: 24, DomainsPerAxis: 4, BufN: 2, Ecut: 6, KT: 0.05, MixAlpha: 0.3, Anderson: true,
		MaxSCF: 100, EigenIters: 2, Seed: 1, SpillDir: spill,
	}
	if toy {
		cfg.GridN, cfg.DomainsPerAxis, cfg.Ecut = 12, 2, 2
		return qmd.BuildSiC(1), cfg
	}
	return qmd.BuildSiC(2), cfg
}

// coreLayers probes core.Engine: construction, one SCF iteration at
// each decomposition, forces, and the O(N^3) baseline on the same atoms.
func (p *prober) coreLayers(c *childCtx) error {
	sys := sic8System(c.seed)
	sic8, dom27 := ldcConfig(qmdSic8(c.toy)), ldcConfig(qmd27dom(c.toy))
	light, heavy := 5, 2
	if c.toy {
		light, heavy = 1, 1
	}
	if err := p.time("core.new_engine_s", p.reps, nil, func() error {
		eng, err := core.NewEngine(sys, sic8)
		if err != nil {
			return err
		}
		return eng.Close()
	}); err != nil {
		return err
	}
	// scfStep times single SCF iterations on a fresh engine: Solve capped
	// at one iteration is SCFStep plus the density mixing that keeps the
	// next iteration well posed. The warm-up call is the iteration that
	// seeds the wave functions.
	scfStep := func(name string, n int, s *qmd.System, cfg qmd.LDCConfig, after func(*core.Engine) error) error {
		cfg.MaxSCF = 1
		eng, err := core.NewEngine(s, cfg)
		if err != nil {
			return err
		}
		defer eng.Close()
		if err := p.time(name, n, nil, func() error {
			if _, err := eng.Solve(); !errors.Is(err, core.ErrNotConverged) {
				return fmt.Errorf("one capped SCF iteration: %v", err)
			}
			return nil
		}); err != nil {
			return err
		}
		if after != nil {
			return after(eng)
		}
		return nil
	}
	if err := scfStep("core.scf_step_s.sic8", light, sys, sic8, func(eng *core.Engine) error {
		return p.time("core.forces_s", light, nil, func() error {
			_, err := eng.Forces()
			return err
		})
	}); err != nil {
		return err
	}
	if err := scfStep("core.scf_step_s.27dom", light, sys, dom27, nil); err != nil {
		return err
	}
	big, bigCfg := stream64(c.toy, "")
	if err := scfStep("core.scf_step_s.stream64", heavy, big, bigCfg, nil); err != nil {
		return err
	}
	_, spillCfg := stream64(c.toy, filepath.Join(c.dir, "spill"))
	if err := scfStep("core.scf_step_spill_s.stream64", heavy, big, spillCfg, nil); err != nil {
		return err
	}
	p0 := qmdSic8(c.toy)
	t0 := time.Now()
	if _, err := scf.Solve(sys, scf.Config{
		GridN: p0.GridN, Ecut: p0.Ecut, KT: 0.05, MixAlpha: 0.3, Anderson: true, MaxIter: 100, EigenIters: 4, Seed: 1,
	}); err != nil {
		return fmt.Errorf("scf.conventional_solve_s: %w", err)
	}
	p.out["scf.conventional_solve_s"] = probeValue{Value: time.Since(t0).Seconds(), N: 1}
	return nil
}

// solve times one full SCF solve of the qmd-sic8 system.
func (p *prober) solve(c *childCtx) error {
	eng, err := core.NewEngine(sic8System(c.seed), ldcConfig(qmdSic8(c.toy)))
	if err != nil {
		return err
	}
	defer eng.Close()
	t0 := time.Now()
	if _, err := eng.Solve(); err != nil {
		return err
	}
	p.out["core.solve_s"] = probeValue{Value: time.Since(t0).Seconds(), N: 1}
	return nil
}

// freeField is a force field that costs nothing, so an integrator step
// over it is the integrator alone.
type freeField struct{ forces []geom.Vec3 }

func (f freeField) Compute(*atoms.System) (float64, []geom.Vec3, error) { return 0, f.forces, nil }

// mdLayers probes the layers of the reactive workload at its size.
func (p *prober) mdLayers(c *childCtx) error {
	rp, sp := reactiveLiAl(c.toy), serveJobs(c.toy, false)
	sys, err := lialSystem(rp.Pairs, c.seed)
	if err != nil {
		return err
	}
	sys.InitVelocities(rp.TempK, rand.New(rand.NewSource(c.seed)))
	field := reactive.NewField()
	if err := p.time("reactive.field_compute_s", p.reps, nil, func() error {
		_, _, err := field.Compute(sys)
		return err
	}); err != nil {
		return err
	}
	p.time("reactive.census_s", p.reps, nil, noErr(func() { reactive.TakeCensus(sys) }))
	p.time("atoms.neighbor_build_s", p.reps, nil, noErr(func() { atoms.BuildNeighborList(sys, field.P.Cutoff) }))
	moving := sys.Clone()
	in := md.NewIntegrator(freeField{make([]geom.Vec3, sys.NumAtoms())}, 0)
	if err := p.time("md.integrate_s", p.reps, nil, func() error { return in.Step(moving) }); err != nil {
		return err
	}
	// The serve job's trajectory with nothing around it: no manager, no
	// HTTP, no checkpoints.
	job, err := lialSystem(sp.Pairs, c.seed)
	if err != nil {
		return err
	}
	var fresh *qmd.System
	return p.time("reactive.job_bare_s", p.reps,
		noErr(func() { fresh = job.Clone() }),
		func() error {
			_, err := reactive.RunProduction(fresh, reactive.ProductionConfig{TempK: sp.TempK, Steps: sp.Steps, Seed: c.seed})
			return err
		})
}

// ioLayers probes qio and cache with the states the workloads write.
func (p *prober) ioLayers(c *childCtx) error {
	sic := sic8System(c.seed)
	p0 := qmdSic8(c.toy)
	eng, err := core.NewEngine(sic, ldcConfig(p0))
	if err != nil {
		return err
	}
	rho := eng.ExportDensity()
	eng.Close()
	lial, err := lialSystem(reactiveLiAl(c.toy).Pairs, c.seed)
	if err != nil {
		return err
	}
	lial.InitVelocities(600, rand.New(rand.NewSource(c.seed)))

	for _, s := range []struct {
		tag     string
		sys     *qmd.System
		rho     *grid.Field
		domains int
	}{{"sic8", sic, rho, p0.Domains}, {"lial", lial, nil, 1}} {
		path := filepath.Join(c.dir, s.tag+".ckpt")
		snapshot := func(shift float64) (*qio.Checkpoint, error) {
			moved := s.sys.Clone()
			for i := range moved.Atoms {
				moved.Atoms[i].Position.X += shift
			}
			moved.WrapAll()
			ck, err := qio.CheckpointFromSystem(moved)
			if err != nil {
				return nil, err
			}
			ck.Step, ck.DtFs = 1, 0.242
			ck.Force = make([]geom.Vec3, moved.NumAtoms())
			ck.Energies, ck.Temperatures = []float64{-1}, []float64{300}
			if s.rho != nil {
				ck.GridN, ck.Rho = s.rho.Grid.N, s.rho.Data
			}
			return ck, nil
		}
		ck, err := snapshot(0)
		if err != nil {
			return err
		}
		opts := qio.CheckpointWriteOptions{DomainsPerAxis: s.domains}
		var size int64
		if err := p.time("qio.checkpoint_write_s."+s.tag, p.reps, nil, func() error {
			size, err = qio.WriteCheckpoint(path, ck, opts)
			return err
		}); err != nil {
			return err
		}
		p.count("qio.checkpoint_bytes."+s.tag, float64(size))
		if err := p.time("qio.checkpoint_read_s."+s.tag, p.reps, nil, func() error {
			_, err := qio.ReadCheckpoint(path)
			return err
		}); err != nil {
			return err
		}
		base, _, err := qio.WriteCheckpointBase(path, ck, opts)
		if err != nil {
			return err
		}
		next, err := snapshot(0.01) // one MD step's worth of motion
		if err != nil {
			return err
		}
		if err := p.time("qio.delta_write_s."+s.tag, p.reps, nil, func() error {
			size, err = qio.WriteCheckpointDelta(path+".delta", next, base)
			return err
		}); err != nil {
			return err
		}
		p.count("qio.delta_bytes."+s.tag, float64(size))
	}

	spec, err := serveSpec(serveJobs(c.toy, false), c.seed)
	if err != nil {
		return err
	}
	specPath := filepath.Join(c.dir, "spec.json")
	if err := p.time("qio.json_atomic_write_s", p.reps, nil, func() error { return qio.WriteJSONFile(specPath, &spec) }); err != nil {
		return err
	}

	// The cache as qmd-sic8 uses it: one entry per force evaluation, each
	// holding energy, forces and the 16^3 density.
	wsc, err := cache.Open(cache.Options{Dir: filepath.Join(c.dir, "cache")})
	if err != nil {
		return err
	}
	const tag = "bench"
	entry := &cache.Result{EnergyHa: -1, Forces: make([]geom.Vec3, sic.NumAtoms()), SCFIterations: 19, Rho: rho}
	shifted := func(dx float64) *qmd.System {
		s := sic.Clone()
		s.Atoms[0].Position.X += dx
		return s
	}
	i := 0
	if err := p.time("cache.put_s", p.reps, nil, func() error {
		i++
		return wsc.Put(shifted(0.001*float64(i)), tag, entry)
	}); err != nil {
		return err
	}
	lookup := func(name string, sys *qmd.System, nearOK bool, want cache.Tier) error {
		return p.time(name, p.reps, nil, func() error {
			if _, tier := wsc.Lookup(sys, tag, nearOK); tier != want {
				return fmt.Errorf("lookup tier %v, want %v", tier, want)
			}
			return nil
		})
	}
	if err := lookup("cache.lookup_exact_s", shifted(0.001), false, cache.TierExact); err != nil {
		return err
	}
	return lookup("cache.lookup_near_s", shifted(0.1), true, cache.TierNear)
}

// leaseLayer probes the coordinator's lease path in process, without
// HTTP: submit, acquire, renew, complete.
func (p *prober) leaseLayer(c *childCtx) error {
	spec, err := serveSpec(serveJobs(c.toy, true), c.seed)
	if err != nil {
		return err
	}
	mgr, err := serve.NewManager(serve.Config{DataDir: filepath.Join(c.dir, "lease"), Distributed: true})
	if err != nil {
		return err
	}
	defer mgr.Shutdown(context.Background())
	var renews []float64
	err = p.time("lease.acquire_complete_s", p.reps, nil, func() error {
		st, err := mgr.Submit(spec)
		if err != nil {
			return err
		}
		g, err := mgr.Acquire(context.Background(), "probe", 0)
		if err != nil {
			return err
		}
		if g == nil || g.JobID != st.ID {
			return fmt.Errorf("acquire did not grant %s", st.ID)
		}
		t0 := time.Now()
		if _, err := mgr.RenewLease(g.JobID, g.Epoch); err != nil {
			return err
		}
		renews = append(renews, time.Since(t0).Seconds())
		_, err = mgr.CompleteLease(g.JobID, serve.CompleteRequest{
			Worker: "probe", Epoch: g.Epoch, Status: "completed", Report: serve.RunReport{Steps: spec.Steps},
		})
		return err
	})
	if err != nil {
		return err
	}
	renews = renews[1:] // the warm-up call
	p.out["lease.renew_s"] = probeValue{Value: median(renews), N: len(renews)}
	return nil
}
