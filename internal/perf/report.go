package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// WriteText renders the registry as an aligned text table, hottest phase
// first. Phases record FLOPs only where attribution is exact or modelled
// (see the package comment); rows without FLOPs or bytes show "-".
//
//	phase                          calls      total       mean        max     GFLOP   GFLOP/s      MB/s
//	scf/domain-solves                 12     1.234s   102.83ms   140.20ms    12.340     10.00         -
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	if _, err := fmt.Fprintf(w, "%-28s %7s %10s %10s %10s %9s %9s %9s\n",
		"phase", "calls", "total", "mean", "max", "GFLOP", "GFLOP/s", "MB/s"); err != nil {
		return err
	}
	for _, s := range snap {
		gf := "-"
		gfs := "-"
		if s.Flops > 0 {
			gf = fmt.Sprintf("%.3f", float64(s.Flops)/1e9)
			gfs = fmt.Sprintf("%.2f", s.GFlopsPerSec())
		}
		mbs := "-"
		if s.Bytes > 0 {
			mbs = fmt.Sprintf("%.1f", s.MBPerSec())
		}
		if _, err := fmt.Fprintf(w, "%-28s %7d %10s %10s %10s %9s %9s %9s\n",
			s.Name, s.Calls, fmtDur(s.Total), fmtDur(s.Mean), fmtDur(s.Max), gf, gfs, mbs); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the registry export as indented JSON (same ordering
// as WriteText) — what -perf-json writes. The schema is Report's —
// PhaseStats rows keyed by their JSON tags.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Export())
}

// fmtDur formats a duration with a unit chosen for its magnitude, keeping
// report columns compact and stable.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
