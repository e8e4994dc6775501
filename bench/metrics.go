package main

import (
	"time"

	"ldcdft/internal/perf"
)

// perLayerDefs lists the single-layer metrics, named <module>.<what>. They
// come from three sources, all inside this directory: spans recorded
// around the workload's own calls (serve.*, lease.* counts, cache
// replay), probes timing each layer's exported functions at the
// workloads' shapes (probes.go), and the counters the program already
// keeps in perf.Default, read after the traced run. A layer a workload
// does not use reads 0 there.
var perLayerDefs = []metricDef{
	// Spans and job timestamps of the serve workloads.
	{Name: "serve.submit_s", Unit: "s", Better: "lower"},
	{Name: "serve.wait_s", Unit: "s", Better: "lower"},
	{Name: "serve.results_fetch_s", Unit: "s", Better: "lower"},
	{Name: "serve.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "serve.run_s", Unit: "s", Better: "lower"},
	{Name: "serve.overhead_s", Unit: "s", Better: "lower"},
	{Name: "serve.useful_frac", Unit: "ratio", Better: "higher"},
	{Name: "serve.jobs_completed", Unit: "count", Better: "higher"},
	{Name: "serve.jobs_failed", Unit: "count", Better: "lower"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	{Name: "lease.granted", Unit: "count", Better: "lower"},
	{Name: "lease.expired", Unit: "count", Better: "lower"},
	{Name: "lease.stale_rejected", Unit: "count", Better: "lower"},
	{Name: "cache.replay_traj_s", Unit: "s", Better: "lower"},

	// Probes: median seconds per call into the layer.
	{Name: "fft.plan3_batch_s.g12", Unit: "s", Better: "lower"},
	{Name: "fft.plan3_batch_s.g10", Unit: "s", Better: "lower"},
	{Name: "fft.rplan3_s.g16", Unit: "s", Better: "lower"},
	{Name: "fft.rplan3_s.g18", Unit: "s", Better: "lower"},
	{Name: "pw.apply_all_s.g12", Unit: "s", Better: "lower"},
	{Name: "pw.apply_all_s.g10", Unit: "s", Better: "lower"},
	{Name: "pw.orthonormalize_s.g12", Unit: "s", Better: "lower"},
	{Name: "pw.orthonormalize_s.g10", Unit: "s", Better: "lower"},
	{Name: "pw.density_s.g12", Unit: "s", Better: "lower"},
	{Name: "pw.density_s.g10", Unit: "s", Better: "lower"},
	{Name: "linalg.cgemm_ct_s", Unit: "s", Better: "lower"},
	{Name: "linalg.hermitian_eigen_s", Unit: "s", Better: "lower"},
	{Name: "linalg.cholesky_s", Unit: "s", Better: "lower"},
	{Name: "scf.diagonalize_s.g12", Unit: "s", Better: "lower"},
	{Name: "scf.diagonalize_s.g10", Unit: "s", Better: "lower"},
	{Name: "scf.conventional_solve_s", Unit: "s", Better: "lower"},
	{Name: "multigrid.solve_poisson_s.g16", Unit: "s", Better: "lower"},
	{Name: "multigrid.solve_poisson_s.g18", Unit: "s", Better: "lower"},
	{Name: "multigrid.vcycles", Unit: "count", Better: "lower"},
	{Name: "core.new_engine_s", Unit: "s", Better: "lower"},
	{Name: "core.scf_step_s.sic8", Unit: "s", Better: "lower"},
	{Name: "core.scf_step_s.27dom", Unit: "s", Better: "lower"},
	{Name: "core.scf_step_s.stream64", Unit: "s", Better: "lower"},
	{Name: "core.scf_step_spill_s.stream64", Unit: "s", Better: "lower"},
	{Name: "core.forces_s", Unit: "s", Better: "lower"},
	{Name: "core.solve_s.p1", Unit: "s", Better: "lower"},
	{Name: "core.solve_s.p2", Unit: "s", Better: "lower"},
	{Name: "core.parallel_eff", Unit: "ratio", Better: "higher"},
	{Name: "grid.extract_accumulate_s", Unit: "s", Better: "lower"},
	{Name: "md.integrate_s", Unit: "s", Better: "lower"},
	{Name: "reactive.field_compute_s", Unit: "s", Better: "lower"},
	{Name: "reactive.census_s", Unit: "s", Better: "lower"},
	{Name: "reactive.job_bare_s", Unit: "s", Better: "lower"},
	{Name: "atoms.neighbor_build_s", Unit: "s", Better: "lower"},
	{Name: "qio.checkpoint_write_s.sic8", Unit: "s", Better: "lower"},
	{Name: "qio.checkpoint_write_s.lial", Unit: "s", Better: "lower"},
	{Name: "qio.checkpoint_bytes.sic8", Unit: "bytes", Better: "lower"},
	{Name: "qio.checkpoint_bytes.lial", Unit: "bytes", Better: "lower"},
	{Name: "qio.checkpoint_read_s.sic8", Unit: "s", Better: "lower"},
	{Name: "qio.checkpoint_read_s.lial", Unit: "s", Better: "lower"},
	{Name: "qio.delta_write_s.sic8", Unit: "s", Better: "lower"},
	{Name: "qio.delta_write_s.lial", Unit: "s", Better: "lower"},
	{Name: "qio.delta_bytes.sic8", Unit: "bytes", Better: "lower"},
	{Name: "qio.delta_bytes.lial", Unit: "bytes", Better: "lower"},
	{Name: "qio.json_atomic_write_s", Unit: "s", Better: "lower"},
	{Name: "cache.put_s", Unit: "s", Better: "lower"},
	{Name: "cache.lookup_exact_s", Unit: "s", Better: "lower"},
	{Name: "cache.lookup_near_s", Unit: "s", Better: "lower"},
	{Name: "lease.acquire_complete_s", Unit: "s", Better: "lower"},
	{Name: "lease.renew_s", Unit: "s", Better: "lower"},

	// Counts and busy seconds the program keeps (CPU-seconds where a
	// phase runs on several workers at once).
	{Name: "scf.iterations", Unit: "count", Better: "lower"},
	{Name: "scf.domain_solves_busy_s", Unit: "s", Better: "lower"},
	{Name: "scf.eigensolver_calls", Unit: "count", Better: "lower"},
	{Name: "scf.eigensolver_busy_s", Unit: "s", Better: "lower"},
	{Name: "pw.apply_calls", Unit: "count", Better: "lower"},
	{Name: "pw.apply_busy_s", Unit: "s", Better: "lower"},
	{Name: "pw.orthonormalize_busy_s", Unit: "s", Better: "lower"},
	{Name: "fft.transforms", Unit: "count", Better: "lower"},
	{Name: "fft.gflop", Unit: "gflop", Better: "lower"},
	{Name: "fft.busy_s", Unit: "s", Better: "lower"},
	{Name: "scf.hartree_busy_s", Unit: "s", Better: "lower"},
	{Name: "scf.density_assembly_busy_s", Unit: "s", Better: "lower"},
	{Name: "scf.mu_busy_s", Unit: "s", Better: "lower"},
	{Name: "md.force_busy_s", Unit: "s", Better: "lower"},
	{Name: "qio.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "qio.checkpoint_write_busy_s", Unit: "s", Better: "lower"},
	{Name: "cache.put_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.unattributed_s", Unit: "s", Better: "lower"},
}

// verdict checks the run's outputs and folds the result into the
// workload's ledger entry. A failed check fails every op of the run.
func (m *measurement) verdict(wl *workloadLedger, w workload, ref *reference, o runOpts) {
	res := m.res
	failed, note := res.Failed, res.FailNote
	how, err := ref.check(w, o, &res.Out)
	wl.Reference = how
	if err != nil {
		failed = res.Attempted
		if note == "" {
			note = err.Error()
		}
	}
	// With two passes the entry counts one pass's ops and keeps the
	// worse pass's failures.
	wl.Attempted = res.Attempted
	if failed > wl.Failed {
		wl.Failed, wl.FailNote, wl.Correct = failed, note, false
	}
	name, _ := tailStat(len(res.OpWalls))
	wl.TailStat = name
}

// endToEnd turns an untraced measurement into the end-to-end rows.
func (m *measurement) endToEnd(wl *workloadLedger) []metricRow {
	res := m.res
	n := len(res.OpWalls)
	tailName, q := tailStat(n)
	done := float64(res.Attempted - res.Failed)
	values := map[string]metricRow{
		"setup_s":            {Value: median(m.setups), N: len(m.setups), Stat: "median"},
		"time_to_solution_s": {Value: res.WallS, N: 1, Stat: "wall"},
		"op_wall_p50_s":      {Value: median(res.OpWalls), N: n, Stat: "p50 per " + wl.Op},
		"op_wall_tail_s":     {Value: quantile(res.OpWalls, q), N: n, Stat: tailName + " per " + wl.Op},
		"ops_per_s":          {Value: done / res.WallS, N: 1, Stat: wl.Op + "s completed / wall"},
		"cpu_s":              {Value: m.cpuS, N: 1, Stat: "child user+sys"},
		"peak_rss_mib":       {Value: m.rssMiB, N: 1, Stat: "child max RSS"},
	}
	rows := make([]metricRow, 0, len(endToEndDefs))
	for _, d := range endToEndDefs {
		r := values[d.Name]
		r.Name, r.Unit = d.Name, d.Unit
		rows = append(rows, r)
	}
	return rows
}

// perLayer turns a traced measurement and the probe results into the
// per-layer rows.
func (m *measurement) perLayer(probes map[string]probeValue) []metricRow {
	res := m.res
	vals := make(map[string]probeValue, len(perLayerDefs))
	for k, v := range probes {
		vals[k] = v
	}
	for k, v := range res.Layer {
		vals[k] = v
	}
	set := func(name string, v float64) { vals[name] = probeValue{Value: v} }

	phases := make(map[string]perf.PhaseStats)
	for _, p := range res.Perf.Phases {
		phases[p.Name] = p
	}
	busy := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += phases[n].Total
		}
		return d.Seconds()
	}
	set("scf.iterations", float64(res.Out.SCFIterations))
	set("scf.domain_solves_busy_s", busy("scf/domain-solves"))
	set("scf.eigensolver_calls", float64(phases["scf/eigensolver"].Calls))
	set("scf.eigensolver_busy_s", busy("scf/eigensolver"))
	set("pw.apply_calls", float64(phases["pw/apply-hamiltonian"].Calls))
	set("pw.apply_busy_s", busy("pw/apply-hamiltonian"))
	set("pw.orthonormalize_busy_s", busy("pw/orthonormalize"))
	set("fft.transforms", float64(phases["fft/3d"].Calls+phases["fft/3d-real"].Calls))
	set("fft.gflop", float64(phases["fft/3d"].Flops+phases["fft/3d-real"].Flops)/1e9)
	set("fft.busy_s", busy("fft/3d", "fft/3d-real"))
	set("scf.hartree_busy_s", busy("scf/hartree-multigrid"))
	set("scf.density_assembly_busy_s", busy("scf/density-assembly"))
	set("scf.mu_busy_s", busy("scf/chemical-potential"))
	set("md.force_busy_s", busy("md/force"))
	set("qio.checkpoint_bytes", float64(phases["qio/checkpoint-write"].Bytes))
	set("qio.checkpoint_write_busy_s", busy("qio/checkpoint-write"))
	set("cache.put_busy_s", busy("cache/put"))
	if res.Out.SCFIterations > 0 {
		// What the serial stages of an SCF trajectory do not account for:
		// engine rebuilds, forces, mixing, the integrator.
		set("core.unattributed_s", res.WallS-busy("scf/domain-solves", "scf/hartree-multigrid",
			"scf/density-assembly", "scf/chemical-potential", "qio/checkpoint-write", "cache/put"))
	}
	if turn := median(res.OpWalls); res.Layer["serve.run_s"].N > 0 {
		bare := probes["reactive.job_bare_s"].Value
		set("serve.overhead_s", turn-bare)
		set("serve.useful_frac", bare/turn)
	}

	rows := make([]metricRow, 0, len(perLayerDefs))
	for _, d := range perLayerDefs {
		v := vals[d.Name]
		row := metricRow{Name: d.Name, Unit: d.Unit, Value: v.Value, N: v.N}
		if v.N > 0 {
			row.Stat = "median"
		}
		rows = append(rows, row)
	}
	return rows
}
