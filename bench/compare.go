package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
)

// setupFloorS keeps sub-millisecond noise in setup_s from reading as a
// regression: set-up is worse only if it is also this much slower.
const setupFloorS = 0.05

var errRegression = errors.New("compare: at least one row is worse or missing")

// side is one set of ledgers of the same commit.
type side []*ledger

func readSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		l, err := readLedger(path)
		if err != nil {
			return nil, err
		}
		s = append(s, l)
	}
	return s, nil
}

// values collects one metric of one workload across the side's ledgers.
func (s side) values(workload string, pick func(*workloadLedger) []metricRow, metric string) []float64 {
	var out []float64
	for _, l := range s {
		for i := range l.Workloads {
			w := &l.Workloads[i]
			if w.Name != workload {
				continue
			}
			if r, ok := findRow(pick(w), metric); ok {
				out = append(out, r.Value)
			}
		}
	}
	return out
}

// failedShare is failed over attempted ops of one workload on the side;
// ok is false when the side did not run the workload.
func (s side) failedShare(workload string) (share float64, ok bool) {
	var failed, attempted int
	for _, l := range s {
		for _, w := range l.Workloads {
			if w.Name == workload {
				failed += w.Failed
				attempted += w.Attempted
			}
		}
	}
	if attempted == 0 {
		return 0, false
	}
	return float64(failed) / float64(attempted), true
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// judge applies one end-to-end metric's bound to the two sets of values.
func judge(d metricDef, base, next []float64) string {
	b, n := median(base), median(next)
	worse := (n - b) / b
	noWorse := func(x, y float64) bool { return x <= y } // x new, y base
	if d.Better == "higher" {
		worse = (b - n) / b
		noWorse = func(x, y float64) bool { return x >= y }
	}
	if s := max(spread(base), spread(next)); s > d.Bound {
		// Too noisy to call, unless every new run beats every base run.
		for _, x := range next {
			for _, y := range base {
				if !noWorse(x, y) {
					return fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", s*100, d.Bound*100)
				}
			}
		}
		return "ok"
	}
	if worse > d.Bound && !(d.Name == "setup_s" && n-b <= setupFloorS) {
		return "worse"
	}
	return "ok"
}

// cmdCompare prints base, new, ratio and verdict for every (end-to-end
// metric, workload) row of BASE and fails on any "worse", any rise in
// the share of failed operations, and any row NEW does not have: a gate
// that compared nothing must not pass.
func cmdCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return errors.New("compare needs two arguments: BASE.json[,...] NEW.json[,...]")
	}
	base, err := readSide(fs.Arg(0))
	if err != nil {
		return err
	}
	next, err := readSide(fs.Arg(1))
	if err != nil {
		return err
	}
	bad, compared := false, 0
	fmt.Fprintf(out, "%-17s %-34s %-6s %13s %13s %7s  %s\n", "workload", "metric", "unit", "base", "new", "ratio", "verdict")
	line := func(w, metric, unit string, b, n float64, verdict string) {
		ratio := ""
		if b != 0 {
			ratio = fmt.Sprintf("%.3f", n/b)
		}
		fmt.Fprintf(out, "%-17s %-34s %-6s %13.6g %13.6g %7s  %s\n", w, metric, unit, b, n, ratio, verdict)
	}
	for _, w := range base[0].Workloads {
		e2e := func(w *workloadLedger) []metricRow { return w.EndToEnd }
		for _, d := range endToEndDefs {
			b, n := base.values(w.Name, e2e, d.Name), next.values(w.Name, e2e, d.Name)
			if len(b) == 0 {
				continue // BASE ran no untraced pass here: nothing to hold NEW to
			}
			if len(n) == 0 {
				bad = true
				line(w.Name, d.Name, d.Unit, median(b), 0, "missing in NEW")
				continue
			}
			compared++
			verdict := judge(d, b, n)
			bad = bad || verdict == "worse"
			if len(b) > 1 || len(n) > 1 {
				bq1, bq3 := quartiles(b)
				nq1, nq3 := quartiles(n)
				verdict += fmt.Sprintf("  [base q1 %.4g q3 %.4g, new q1 %.4g q3 %.4g]", bq1, bq3, nq1, nq3)
			}
			line(w.Name, d.Name, d.Unit, median(b), median(n), verdict)
		}
		bf, _ := base.failedShare(w.Name)
		nf, ran := next.failedShare(w.Name)
		verdict := "ok"
		switch {
		case !ran:
			verdict, bad = "missing in NEW", true
		case nf > bf:
			verdict, bad = "worse", true
		}
		line(w.Name, "ops_failed_share", "ratio", bf, nf, verdict)
	}
	if bad {
		return errRegression
	}
	if compared == 0 {
		return errors.New("compare: BASE holds no end-to-end rows (was it a --trace 1 run?)")
	}
	return nil
}
