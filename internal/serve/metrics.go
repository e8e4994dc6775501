package serve

import (
	"fmt"
	"io"
	"net/http"

	"ldcdft/internal/perf"
)

// WriteMetrics renders the scheduler counters followed by the process
// perf registry (per-phase timings, FLOP and byte counters) in
// Prometheus exposition format — the body of GET /metrics.
func (m *Manager) WriteMetrics(w io.Writer) error {
	c := m.Stats()
	type row struct {
		name, help, typ string
		v               float64
	}
	rows := []row{
		{"qmdd_queue_depth", "Jobs waiting in the admission queue.", "gauge", float64(c.QueueDepth)},
		{"qmdd_jobs_running", "Jobs currently executing (leased).", "gauge", float64(c.Running)},
		{"qmdd_jobs_submitted_total", "Jobs admitted since daemon start.", "counter", float64(c.Submitted)},
		{"qmdd_jobs_completed_total", "Jobs finished successfully.", "counter", float64(c.Completed)},
		{"qmdd_jobs_failed_total", "Jobs finished with an error.", "counter", float64(c.Failed)},
		{"qmdd_jobs_cancelled_total", "Jobs cancelled by clients.", "counter", float64(c.Cancelled)},
		{"qmdd_jobs_rejected_total", "Submissions rejected by admission control (429).", "counter", float64(c.Rejected)},
		{"qmdd_jobs_pruned_total", "Terminal jobs removed from the store by retention bounds.", "counter", float64(c.Pruned)},
		{"qmdd_leases_active", "Jobs currently leased to in-process slots or worker nodes.", "gauge", float64(c.Running)},
		{"qmdd_leases_granted_total", "Leases granted to in-process slots or worker nodes.", "counter", float64(c.LeasesGranted)},
		{"qmdd_leases_expired_total", "Leases revoked after missed renewals (job requeued).", "counter", float64(c.LeasesExpired)},
		{"qmdd_lease_stale_rejected_total", "Lease calls rejected by the epoch fence (zombie workers).", "counter", float64(c.StaleRejected)},
	}
	if m.cfg.Cache != nil {
		s := m.cfg.Cache.Stats()
		rows = append(rows, []row{
			{"qmdd_cache_hits_total", "Warm-start cache exact hits (SCF solve skipped).", "counter", float64(s.Hits)},
			{"qmdd_cache_near_hits_total", "Warm-start cache near misses that seeded an SCF solve.", "counter", float64(s.NearHits)},
			{"qmdd_cache_misses_total", "Warm-start cache misses.", "counter", float64(s.Misses)},
			{"qmdd_cache_evictions_total", "Warm-start cache entries evicted by the byte budget.", "counter", float64(s.Evictions)},
			{"qmdd_cache_corrupt_total", "Warm-start cache entries rejected by CRC/decode and removed.", "counter", float64(s.Corrupt)},
			{"qmdd_cache_scf_iterations_saved_total", "SCF iterations avoided via exact hits and near-miss seeding.", "counter", float64(s.SCFIterationsSaved)},
			{"qmdd_cache_entries", "Warm-start cache entries currently stored.", "gauge", float64(s.Entries)},
			{"qmdd_cache_bytes", "Bytes of warm-start cache entries currently stored.", "gauge", float64(s.Bytes)},
		}...)
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n",
			row.name, row.help, row.name, row.typ, row.name, row.v); err != nil {
			return err
		}
	}
	return perf.Default.WritePrometheus(w)
}

func (m *Manager) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.WriteMetrics(w)
}
