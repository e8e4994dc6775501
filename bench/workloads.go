package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	qmd "ldcdft"
	"ldcdft/internal/atoms"
	"ldcdft/internal/cache"
	"ldcdft/internal/perf"
	"ldcdft/internal/reactive"
	"ldcdft/internal/serve"
)

// Load is sized for a 2-core shared box: one generator process, two
// client connections, engine Workers left at 0 (= GOMAXPROCS).
const (
	serveClients = 2
	servePoll    = 2 * time.Millisecond
	loopType     = "closed, 2 clients"
)

// workload is one named set of inputs. Sizes are fixed so that
// time-to-solution compares across commits; toy sizes exist only for
// the smoke test and are never checked against the reference.
type workload struct {
	Name string
	Why  string
	// Op says what one counted operation is: an MD step or a job.
	Op string
	// Ref is the key of the committed reference the outputs are checked
	// against; the two serve workloads share one job array and so one
	// reference.
	Ref string
	// EnergyTolHa, when set, is the absolute tolerance of the reference
	// check; otherwise energies must agree to 1e-9 relative.
	EnergyTolHa float64
	// sizes describes the inputs for the ledger header.
	sizes func(toy bool) map[string]any
	run   func(c *childCtx) (*childResult, error)
}

var workloads = []workload{
	{
		Name: "qmd-sic8", Op: "md step", Ref: "qmd-sic8", EnergyTolHa: qmdEnergyTol,
		Why:   "LDC-DFT trajectory, 8 domains on 2 workers with cache and delta checkpoints: scf/pw/fft/linalg do ~90% of wall",
		sizes: func(toy bool) map[string]any { return qmdSizes(qmdSic8(toy)) },
		run:   func(c *childCtx) (*childResult, error) { return runQMD(c, qmdSic8(c.toy)) },
	},
	{
		Name: "qmd-27dom", Op: "md step", Ref: "qmd-27dom", EnergyTolHa: qmdEnergyTol,
		Why:   "same system in 27 domains of 10^3 points streamed through nproc workspaces: core streaming, grid and multigrid weigh more, other FFT shape",
		sizes: func(toy bool) map[string]any { return qmdSizes(qmd27dom(toy)) },
		run:   func(c *childCtx) (*childResult, error) { return runQMD(c, qmd27dom(c.toy)) },
	},
	{
		Name: "reactive-lial", Op: "md step", Ref: "reactive-lial",
		Why:   "1500-atom reactive production run, DFT stack bypassed: reactive, atoms neighbor lists, md and checkpoint qio do all the work",
		sizes: func(toy bool) map[string]any { return reactiveSizes(reactiveLiAl(toy)) },
		run:   func(c *childCtx) (*childResult, error) { return runReactive(c, reactiveLiAl(c.toy)) },
	},
	{
		Name: "serve-standalone", Op: "job", Ref: "serve-jobs",
		Why:   "300 tiny reactive jobs through a standalone manager over HTTP: admission, durable state, queue and results dominate turnaround",
		sizes: func(toy bool) map[string]any { return serveSizes(serveJobs(toy, false)) },
		run:   func(c *childCtx) (*childResult, error) { return runServe(c, serveJobs(c.toy, false)) },
	},
	{
		Name: "serve-cluster", Op: "job", Ref: "serve-jobs",
		Why:   "the same job array through a coordinator and two lease workers: the serve layer used through leases and checkpoint upload instead",
		sizes: func(toy bool) map[string]any { return serveSizes(serveJobs(toy, true)) },
		run:   func(c *childCtx) (*childResult, error) { return runServe(c, serveJobs(c.toy, true)) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// childCtx is what a workload run needs from the child process.
type childCtx struct {
	seed      int64
	toy       bool
	dir       string // scratch directory, removed by the parent
	spawn     time.Time
	setupOnly bool
	tr        *tracer // nil in the untraced pass
}

// output holds what a workload computed, for the reference check.
type output struct {
	Atoms         int              `json:"atoms"`
	FinalAtoms    int              `json:"final_atoms"`
	Energies      []float64        `json:"energies_ha"`
	SCFIterations int              `json:"scf_iterations,omitempty"`
	FinalTempK    float64          `json:"final_temp_k,omitempty"`
	Census        *reactive.Census `json:"census,omitempty"`
}

// childResult is the one JSON object a child prints on stdout.
type childResult struct {
	SetupS    float64     `json:"setup_s"`
	WallS     float64     `json:"wall_s"`
	OpWalls   []float64   `json:"op_walls_s"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	FailNote  string      `json:"fail_note,omitempty"`
	Out       output      `json:"out"`
	Perf      perf.Report `json:"perf"`
	// Layer holds per-layer values: what a traced workload run derives
	// from its own spans, or what a probe child measured.
	Layer map[string]probeValue `json:"layer,omitempty"`
}

// ready marks the end of set-up — the first timed call follows — and
// resets the program's counters so they cover the timed section only.
// It reports whether this child was asked for set-up alone.
func (c *childCtx) ready(res *childResult) bool {
	res.SetupS = time.Since(c.spawn).Seconds()
	perf.Default.Reset()
	return c.setupOnly
}

// opClock turns a stream of "an op just finished" calls into per-op
// wall times and, when tracing, child spans of root.
type opClock struct {
	tr    *tracer
	root  int
	name  string
	last  time.Time
	walls []float64
}

func (o *opClock) tick() {
	now := time.Now()
	o.tr.add(o.root, o.name, o.last, now)
	o.walls = append(o.walls, now.Sub(o.last).Seconds())
	o.last = now
}

// ---- qmd-* -------------------------------------------------------------

type qmdParams struct {
	GridN, Domains, Steps int
	Ecut                  float64
	Cache                 bool
	// SCF tolerances; 0 = the engine defaults (1e-6 Ha, 1e-5). Only the
	// toy sizes loosen them, to converge in a handful of iterations.
	EnergyTol, DensityTol float64
}

func qmdSic8(toy bool) qmdParams {
	if toy {
		return qmdParams{GridN: 12, Domains: 2, Steps: 1, Ecut: 3, Cache: true, EnergyTol: 1e-3, DensityTol: 1e-2}
	}
	return qmdParams{GridN: 16, Domains: 2, Steps: 6, Ecut: 3, Cache: true}
}

func qmd27dom(toy bool) qmdParams {
	if toy {
		return qmdParams{GridN: 12, Domains: 3, Steps: 1, Ecut: 3, EnergyTol: 1e-3, DensityTol: 1e-2}
	}
	// Ecut 4, not the 3 of qmd-sic8: at 3 Ha a 10^3 domain holds ~24 plane
	// waves for up to 14 bands, and the eigensolver fails on 3 seeds in 10.
	return qmdParams{GridN: 18, Domains: 3, Steps: 4, Ecut: 4}
}

func qmdSizes(p qmdParams) map[string]any {
	return map[string]any{
		"system": "BuildSiC(1), 8 atoms, 300 K", "grid_n": p.GridN, "domains": p.Domains * p.Domains * p.Domains,
		"buf_n": 2, "ecut_ha": p.Ecut, "md_steps": p.Steps, "cache": p.Cache,
		"checkpoint": "every step, delta", "scf": "to convergence, MaxSCF 100, EigenIters 4, Anderson 0.3, kT 0.05",
		"energy_tol_ha": p.EnergyTol, "density_tol": p.DensityTol, // 0 = engine defaults
	}
}

// ldcConfig is the ldcmd reference configuration. Its Seed (the
// eigensolver's start vectors) stays at ldcmd's default: it alone moves
// the SCF iteration count by a quarter (132 at 1, 170 at 3), which would
// make time-to-solution a property of the seed. --seed drives the
// velocities.
func ldcConfig(p qmdParams) qmd.LDCConfig {
	return qmd.LDCConfig{
		GridN: p.GridN, DomainsPerAxis: p.Domains, BufN: 2, Ecut: p.Ecut,
		Mode: qmd.ModeLDC, KT: 0.05, MixAlpha: 0.3, Anderson: true,
		MaxSCF: 100, EigenIters: 4, Seed: 1, EnergyTol: p.EnergyTol, DensityTol: p.DensityTol,
	}
}

func sic8System(seed int64) *qmd.System {
	sys := qmd.BuildSiC(1)
	sys.InitVelocities(300, rand.New(rand.NewSource(seed)))
	return sys
}

func runQMD(c *childCtx, p qmdParams) (*childResult, error) {
	res := &childResult{Attempted: p.Steps}
	sys := sic8System(c.seed)
	cfg := ldcConfig(p)
	opts := qmd.QMDOptions{
		CheckpointEvery: 1, CheckpointPath: filepath.Join(c.dir, "traj.ckpt"), DeltaCheckpoints: true,
	}
	if p.Cache {
		// A fresh directory, as qmdd wires it: every evaluation misses
		// and puts.
		wsc, err := cache.Open(cache.Options{Dir: filepath.Join(c.dir, "cache")})
		if err != nil {
			return nil, err
		}
		opts.Cache = wsc
	}
	if c.ready(res) {
		return res, nil
	}

	start := time.Now()
	clock := &opClock{tr: c.tr, root: c.tr.open(-1, "run", start), name: "md.step", last: start}
	opts.OnStep = func(int, float64, float64) { clock.tick() }
	traj, err := qmd.RunQMDOpts(sys, cfg, p.Steps, 0, opts)
	end := time.Now()
	c.tr.end(clock.root, end)
	res.WallS = end.Sub(start).Seconds()
	res.Perf = perf.Default.Export()
	res.OpWalls = clock.walls
	if traj != nil {
		res.Failed = p.Steps - traj.Steps
		res.Out = output{
			Atoms: sys.NumAtoms(), Energies: traj.Energies, SCFIterations: traj.SCFIterations,
		}
		if traj.FinalSystem != nil {
			res.Out.FinalAtoms = traj.FinalSystem.NumAtoms()
		}
		if n := len(traj.Temperatures); n > 0 {
			res.Out.FinalTempK = traj.Temperatures[n-1]
		}
	}
	if err != nil {
		// A trajectory that stops early (SCF not converged, I/O error)
		// fails its remaining steps; the benchmark still reports.
		res.FailNote = err.Error()
		if traj == nil {
			res.Failed = p.Steps
		}
		return res, nil
	}
	if c.tr != nil && p.Cache {
		// The same trajectory again on the cache it just primed: every
		// force evaluation is an exact hit.
		t0 := time.Now()
		again, err := qmd.RunQMDOpts(sys, cfg, p.Steps, 0, qmd.QMDOptions{Cache: opts.Cache})
		if err != nil {
			return nil, fmt.Errorf("cache replay: %w", err)
		}
		if st := opts.Cache.Stats(); again.SCFIterations != 0 || int(st.Hits) != p.Steps+1 {
			return nil, fmt.Errorf("cache replay: %d SCF iterations, %d exact hits, want 0 and %d",
				again.SCFIterations, st.Hits, p.Steps+1)
		}
		res.Layer = map[string]probeValue{"cache.replay_traj_s": {Value: time.Since(t0).Seconds(), N: 1}}
	}
	return res, nil
}

// ---- reactive-lial -----------------------------------------------------

type reactiveParams struct {
	Pairs, Steps, SampleEvery, CheckpointEvery int
	TempK                                      float64
}

func reactiveLiAl(toy bool) reactiveParams {
	p := reactiveParams{Pairs: 30, Steps: 2000, SampleEvery: 50, CheckpointEvery: 100, TempK: 600}
	if toy {
		p.Steps, p.SampleEvery, p.CheckpointEvery = 20, 10, 10
	}
	return p
}

func reactiveSizes(p reactiveParams) map[string]any {
	return map[string]any{
		"system": fmt.Sprintf("BuildLiAlInWater(PairCount %d)", p.Pairs), "temp_k": p.TempK, "md_steps": p.Steps,
		"sample_every": p.SampleEvery, "checkpoint_every": p.CheckpointEvery,
	}
}

func lialSystem(pairs int, seed int64) (*qmd.System, error) {
	return atoms.BuildLiAlInWater(atoms.LiAlParticleSpec{PairCount: pairs}, rand.New(rand.NewSource(seed)))
}

func runReactive(c *childCtx, p reactiveParams) (*childResult, error) {
	res := &childResult{Attempted: p.Steps}
	sys, err := lialSystem(p.Pairs, c.seed)
	if err != nil {
		return nil, err
	}
	res.Out.Atoms = sys.NumAtoms()
	cfg := reactive.ProductionConfig{
		TempK: p.TempK, Steps: p.Steps, SampleEvery: p.SampleEvery, Seed: c.seed,
		CheckpointEvery: p.CheckpointEvery, CheckpointPath: filepath.Join(c.dir, "traj.ckpt"),
	}
	if c.ready(res) {
		return res, nil
	}

	start := time.Now()
	clock := &opClock{tr: c.tr, root: c.tr.open(-1, "run", start), name: "md.step", last: start}
	cfg.OnStep = func(int, float64, float64) { clock.tick() }
	prod, err := reactive.RunProduction(sys, cfg)
	end := time.Now()
	c.tr.end(clock.root, end)
	res.WallS = end.Sub(start).Seconds()
	res.Perf = perf.Default.Export()
	res.OpWalls = clock.walls
	res.Failed = p.Steps - len(clock.walls)
	if err != nil {
		res.FailNote = err.Error()
		return res, nil
	}
	tail := prod.EnergiesHa
	if len(tail) > 8 {
		tail = tail[len(tail)-8:]
	}
	final := prod.Final
	res.Out.FinalAtoms = sys.NumAtoms()
	res.Out.Energies = tail
	res.Out.Census = &final
	res.Out.FinalTempK = prod.TemperaturesK[len(prod.TemperaturesK)-1]
	return res, nil
}

// ---- serve-* -----------------------------------------------------------

type serveParams struct {
	Jobs, Pairs, Steps int
	TempK              float64
	Cluster            bool
}

func serveJobs(toy, cluster bool) serveParams {
	p := serveParams{Jobs: 300, Pairs: 2, Steps: 5, TempK: 600, Cluster: cluster}
	if toy {
		p.Jobs = 6
	}
	return p
}

func serveSizes(p serveParams) map[string]any {
	m := map[string]any{
		"jobs": p.Jobs, "clients": serveClients, "loop": loopType, "poll_interval_ms": servePoll.Seconds() * 1e3,
		"job": fmt.Sprintf("reactive engine, BuildLiAlInWater(PairCount %d), %g K, %d steps, checkpoint every step",
			p.Pairs, p.TempK, p.Steps),
		"mode": "standalone, 2 workers",
	}
	if p.Cluster {
		m["mode"] = "coordinator (lease TTL 15 s) + 2 workers x 1 slot, poll wait 1 s"
	}
	return m
}

// serveSpec builds the job every client submits; only the reactive seed
// differs from job to job.
func serveSpec(p serveParams, seed int64) (serve.JobSpec, error) {
	sys, err := lialSystem(p.Pairs, seed)
	if err != nil {
		return serve.JobSpec{}, err
	}
	snap := serve.SnapshotSystem(sys)
	return serve.JobSpec{
		Name: "bench", Engine: serve.EngineReactive, CellL: snap.CellL, Atoms: snap.Atoms,
		Reactive: &serve.ReactiveSpec{TempK: p.TempK, Seed: seed},
		Steps:    p.Steps, CheckpointEvery: 1,
	}, nil
}

// jobRecord is what one closed-loop iteration observed.
type jobRecord struct {
	turnaround, submit, wait, fetch float64
	queueWait, run                  float64
	energy                          float64
	atoms                           int
	err                             error
}

func runServe(c *childCtx, p serveParams) (*childResult, error) {
	res := &childResult{Attempted: p.Jobs}
	spec, err := serveSpec(p, c.seed)
	if err != nil {
		return nil, err
	}
	res.Out.Atoms = len(spec.Atoms)
	mgr, err := serve.NewManager(serve.Config{
		DataDir: filepath.Join(c.dir, "data"), Workers: 2, Distributed: p.Cluster, LeaseTTL: 15 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(mgr.Handler())
	ctx, stopWorkers := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	shutdown := func() {
		stopWorkers()
		workers.Wait()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(sctx)
		ts.Close()
	}
	defer shutdown()
	if p.Cluster {
		for i := 0; i < 2; i++ {
			w, err := serve.NewWorker(serve.WorkerConfig{
				Coordinator: ts.URL, Name: fmt.Sprintf("w%d", i), Slots: 1, PollWait: time.Second,
				WorkDir: filepath.Join(c.dir, fmt.Sprintf("scratch%d", i)),
			})
			if err != nil {
				return nil, err
			}
			workers.Add(1)
			go func() { defer workers.Done(); w.Run(ctx) }()
		}
	}
	client := ts.Client()
	if c.ready(res) {
		return res, nil
	}

	start := time.Now()
	root := c.tr.open(-1, "run", start)
	recs := make([]jobRecord, p.Jobs)
	var clients sync.WaitGroup
	for k := 0; k < serveClients; k++ {
		clients.Add(1)
		go func(k int) {
			defer clients.Done()
			for i := k; i < p.Jobs; i += serveClients {
				js := spec
				r := *spec.Reactive
				r.Seed = c.seed + int64(i)
				js.Reactive = &r
				recs[i] = oneJob(client, ts.URL, js, c.tr, root)
			}
		}(k)
	}
	clients.Wait()
	end := time.Now()
	c.tr.end(root, end)
	res.WallS = end.Sub(start).Seconds()
	res.Perf = perf.Default.Export()

	// A failed job leaves its energy at 0; the failure count carries the
	// verdict.
	res.Out.Energies = make([]float64, p.Jobs)
	res.Out.FinalAtoms = res.Out.Atoms
	var turn, submit, wait, fetch, queue, run []float64
	for i, r := range recs {
		if r.err != nil {
			res.Failed++
			if res.FailNote == "" {
				res.FailNote = fmt.Sprintf("job %d: %v", i, r.err)
			}
			continue
		}
		res.Out.Energies[i] = r.energy
		if r.atoms != res.Out.Atoms {
			res.Out.FinalAtoms = r.atoms
		}
		turn = append(turn, r.turnaround)
		submit, wait, fetch = append(submit, r.submit), append(wait, r.wait), append(fetch, r.fetch)
		queue, run = append(queue, r.queueWait), append(run, r.run)
	}
	res.OpWalls = turn
	res.Layer = map[string]probeValue{}
	for name, xs := range map[string][]float64{
		"serve.submit_s": submit, "serve.wait_s": wait, "serve.results_fetch_s": fetch,
		"serve.queue_wait_s": queue, "serve.run_s": run,
	} {
		res.Layer[name] = probeValue{Value: median(xs), N: len(xs)}
	}
	if err := scrapeMetrics(client, ts.URL, res.Layer); err != nil {
		return nil, err
	}
	// An expired lease requeues its job, which then runs twice and still
	// completes, so the client sees nothing while the turnarounds no longer
	// measure the same work. The manager's own counts decide, in both
	// passes: either one above 0 fails the whole run.
	for _, name := range []string{"lease.expired", "serve.jobs_failed"} {
		if n := res.Layer[name].Value; n > 0 {
			res.Failed = res.Attempted
			res.FailNote = fmt.Sprintf("%s = %g, must be 0", name, n)
		}
	}
	return res, nil
}

// oneJob is one closed-loop iteration: submit, poll until terminal,
// fetch the results. Turnaround runs from the POST being sent to the
// results body being read.
func oneJob(client *http.Client, base string, spec serve.JobSpec, tr *tracer, root int) jobRecord {
	var rec jobRecord
	body, err := json.Marshal(spec)
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	var st serve.JobState
	if err := doJSON(client, http.MethodPost, base+"/v1/jobs", body, http.StatusCreated, &st); err != nil {
		rec.err = err
		return rec
	}
	t1 := time.Now()
	for !st.Status.Terminal() {
		time.Sleep(servePoll)
		if err := doJSON(client, http.MethodGet, base+"/v1/jobs/"+st.ID, nil, http.StatusOK, &st); err != nil {
			rec.err = err
			return rec
		}
	}
	t2 := time.Now()
	if st.Status != serve.StatusCompleted {
		rec.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.Status, st.Error)
		return rec
	}
	var results serve.Results
	if err := doJSON(client, http.MethodGet, base+"/v1/jobs/"+st.ID+"/results", nil, http.StatusOK, &results); err != nil {
		rec.err = err
		return rec
	}
	t3 := time.Now()
	if results.Steps != spec.Steps || results.FinalSystem == nil {
		rec.err = fmt.Errorf("job %s: results hold %d steps, final system %v", st.ID, results.Steps, results.FinalSystem != nil)
		return rec
	}
	job := tr.add(root, "serve.job", t0, t3)
	tr.add(job, "serve.submit", t0, t1)
	tr.add(job, "serve.wait", t1, t2)
	tr.add(job, "serve.results_fetch", t2, t3)
	rec.turnaround = t3.Sub(t0).Seconds()
	rec.submit, rec.wait, rec.fetch = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	rec.queueWait = st.StartedAt.Sub(st.SubmittedAt).Seconds()
	rec.run = st.FinishedAt.Sub(st.StartedAt).Seconds()
	rec.energy = results.FinalEnergyHa
	rec.atoms = len(results.FinalSystem.Atoms)
	return rec
}

func doJSON(client *http.Client, method, url string, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// metricNames maps the manager's /metrics rows to per-layer names.
var metricNames = map[string]string{
	"qmdd_jobs_completed_total":       "serve.jobs_completed",
	"qmdd_jobs_failed_total":          "serve.jobs_failed",
	"qmdd_jobs_rejected_total":        "serve.rejected_429",
	"qmdd_leases_granted_total":       "lease.granted",
	"qmdd_leases_expired_total":       "lease.expired",
	"qmdd_lease_stale_rejected_total": "lease.stale_rejected",
}

func scrapeMetrics(client *http.Client, base string, into map[string]probeValue) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if layer, known := metricNames[name]; ok && known {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("/metrics row %q: %w", line, err)
			}
			into[layer] = probeValue{Value: v}
		}
	}
	return nil
}
