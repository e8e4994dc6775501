package expmatrix

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// RenderMarkdown renders the report as a GitHub-flavored pass/fail
// matrix — the fragment EXPERIMENTS.md embeds and report.md stores.
func RenderMarkdown(rep *Report) string {
	var b strings.Builder
	title := rep.Title
	if title == "" {
		title = rep.Experiment
	}
	fmt.Fprintf(&b, "### %s\n\n", title)
	fmt.Fprintf(&b, "Scenario `%s`; %d cells (%d run, %d cached, %d failed). Verdict: %s.\n\n",
		rep.Scenario, len(rep.Cells), rep.Ran, rep.Cached, rep.Failed, passWord(rep.Pass))

	// Column set: axes, then every observable a computed cell carries (a
	// paper value right after its own number), then the per-cell check
	// names (from the first cell carrying checks — all share the list).
	var obsNames []string
	for _, c := range rep.Cells {
		for name := range c.Observables {
			if !slices.Contains(obsNames, name) {
				obsNames = append(obsNames, name)
			}
		}
	}
	sort.Slice(obsNames, func(i, j int) bool {
		a, b := strings.TrimPrefix(obsNames[i], "paper_"), strings.TrimPrefix(obsNames[j], "paper_")
		if a != b {
			return a < b
		}
		return obsNames[i] == a // "tflops" before "paper_tflops"
	})
	var checkNames []string
	for _, c := range rep.Cells {
		if len(c.Checks) > 0 {
			for _, ch := range c.Checks {
				checkNames = append(checkNames, ch.Name)
			}
			break
		}
	}
	header := make([]string, 0, len(rep.Axes)+len(obsNames)+len(checkNames)+2)
	for _, ax := range rep.Axes {
		header = append(header, ax.Name)
	}
	header = append(header, obsNames...)
	header = append(header, "status")
	header = append(header, checkNames...)
	header = append(header, "cell")
	writeRow(&b, header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(&b, sep)
	for _, c := range rep.Cells {
		row := make([]string, 0, len(header))
		for _, ax := range rep.Axes {
			row = append(row, strconv.FormatFloat(c.Values[ax.Name], 'g', -1, 64))
		}
		for _, name := range obsNames {
			if v, ok := c.Observables[name]; !ok {
				row = append(row, "—")
			} else if v == math.Trunc(v) && math.Abs(v) < 1e15 {
				row = append(row, strconv.FormatFloat(v, 'f', 0, 64)) // counts print whole
			} else {
				row = append(row, strconv.FormatFloat(v, 'g', 6, 64))
			}
		}
		status := c.Status
		if c.Cached {
			status += " (cached)"
		}
		if c.Error != "" {
			status += ": " + c.Error
		}
		row = append(row, status)
		for i := range checkNames {
			if i < len(c.Checks) && !c.Checks[i].Skipped {
				ch := c.Checks[i]
				row = append(row, fmt.Sprintf("%s %.3g", passMark(ch.Pass), ch.Measured))
			} else {
				row = append(row, "—")
			}
		}
		row = append(row, passMark(c.Pass))
		writeRow(&b, row)
	}
	if len(rep.Matrix) > 0 {
		b.WriteString("\nMatrix-level checks:\n\n")
		for _, ch := range rep.Matrix {
			fmt.Fprintf(&b, "- %s `%s`: %s\n", passMark(ch.Pass), ch.Name, ch.Detail)
		}
	}
	return b.String()
}

func writeRow(b *strings.Builder, cells []string) {
	b.WriteString("| ")
	b.WriteString(strings.Join(cells, " | "))
	b.WriteString(" |\n")
}

func passMark(ok bool) string {
	if ok {
		return "✅"
	}
	return "❌"
}

func passWord(ok bool) string {
	if ok {
		return "**PASS**"
	}
	return "**FAIL**"
}
