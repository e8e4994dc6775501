package qio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"ldcdft/internal/atoms"
	"ldcdft/internal/perf"
	"ldcdft/internal/units"
)

var phWriteXYZ = perf.GetPhase("qio/write-xyz")

// countingWriter tracks the bytes that actually reached the underlying
// writer, for throughput attribution.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	k, err := c.w.Write(p)
	c.n += int64(k)
	return k, err
}

// WriteXYZ appends one frame of the system to w in extended-XYZ format
// (positions in Å, the conventional unit of the format; comment carries
// the cell edge). Trajectories are produced by calling it once per
// sampled MD step.
func WriteXYZ(w io.Writer, sys *atoms.System, comment string) error {
	sp := phWriteXYZ.Start()
	cw := &countingWriter{w: w}
	defer func() { sp.StopBytes(cw.n) }()
	bw := bufio.NewWriter(cw)
	if _, err := fmt.Fprintf(bw, "%d\n", sys.NumAtoms()); err != nil {
		return err
	}
	comment = strings.ReplaceAll(comment, "\n", " ")
	if _, err := fmt.Fprintf(bw, "cell_bohr=%.8f %s\n", sys.Cell.L, comment); err != nil {
		return err
	}
	for _, a := range sys.Atoms {
		p := a.Position
		if _, err := fmt.Fprintf(bw, "%-2s %14.8f %14.8f %14.8f\n",
			a.Species.Symbol,
			p.X*units.AngstromPerBohr, p.Y*units.AngstromPerBohr, p.Z*units.AngstromPerBohr); err != nil {
			return err
		}
	}
	return bw.Flush()
}
