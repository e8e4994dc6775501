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
		{"qmdd_jobs_reused_total", "Jobs admitted with a completed job's final checkpoint (resumed, not rerun).", "counter", float64(c.Reused)},
		{"qmdd_leases_active", "Jobs currently leased to in-process slots or worker nodes.", "gauge", float64(c.Running)},
		{"qmdd_leases_granted_total", "Leases granted to in-process slots or worker nodes.", "counter", float64(c.LeasesGranted)},
		{"qmdd_leases_expired_total", "Leases revoked after missed renewals (job requeued).", "counter", float64(c.LeasesExpired)},
		{"qmdd_lease_stale_rejected_total", "Lease calls rejected by the epoch fence (zombie workers).", "counter", float64(c.StaleRejected)},
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
