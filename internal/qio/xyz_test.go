package qio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/units"
)

// The XYZ reader is the oracle of WriteXYZ's round trip; no program
// reads XYZ back.

// TrajectoryReader iterates over the frames of a multi-frame XYZ stream.
type TrajectoryReader struct {
	br *bufio.Reader
}

// NewTrajectoryReader wraps r for frame-by-frame reading.
func NewTrajectoryReader(r io.Reader) *TrajectoryReader {
	return &TrajectoryReader{br: bufio.NewReader(r)}
}

// Next reads one frame, returning io.EOF at clean end of stream.
func (t *TrajectoryReader) Next() (*atoms.System, error) {
	line, err := nextNonEmptyLine(t.br)
	if err != nil {
		return nil, err // io.EOF at a frame boundary is the clean end
	}
	var n int
	if _, err := fmt.Sscanf(strings.TrimSpace(line), "%d", &n); err != nil || n < 0 {
		return nil, fmt.Errorf("qio: bad XYZ atom count %q", strings.TrimSpace(line))
	}
	comment, err := t.br.ReadString('\n')
	if err != nil && comment == "" {
		return nil, fmt.Errorf("qio: missing XYZ comment: %w", err)
	}
	var cellL float64
	for _, tok := range strings.Fields(comment) {
		if strings.HasPrefix(tok, "cell_bohr=") {
			if _, err := fmt.Sscanf(tok, "cell_bohr=%f", &cellL); err != nil {
				return nil, fmt.Errorf("qio: bad cell tag %q", tok)
			}
		}
	}
	if cellL <= 0 {
		return nil, fmt.Errorf("qio: XYZ comment lacks cell_bohr tag")
	}
	sys := &atoms.System{Cell: geom.Cell{L: cellL}}
	for i := 0; i < n; i++ {
		line, err := nextNonEmptyLine(t.br)
		if err != nil {
			return nil, fmt.Errorf("qio: atom %d: %w", i, err)
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("qio: atom %d: short line %q", i, line)
		}
		sp := atoms.SpeciesBySymbol(fields[0])
		if sp == nil {
			return nil, fmt.Errorf("qio: unknown species %q", fields[0])
		}
		var x, y, z float64
		if _, err := fmt.Sscan(fields[1], &x); err != nil {
			return nil, fmt.Errorf("qio: atom %d x: %w", i, err)
		}
		if _, err := fmt.Sscan(fields[2], &y); err != nil {
			return nil, fmt.Errorf("qio: atom %d y: %w", i, err)
		}
		if _, err := fmt.Sscan(fields[3], &z); err != nil {
			return nil, fmt.Errorf("qio: atom %d z: %w", i, err)
		}
		sys.Atoms = append(sys.Atoms, atoms.Atom{Species: sp, Position: geom.Vec3{
			X: x * units.BohrPerAngstrom,
			Y: y * units.BohrPerAngstrom,
			Z: z * units.BohrPerAngstrom,
		}})
	}
	return sys, nil
}

func nextNonEmptyLine(br *bufio.Reader) (string, error) {
	for {
		line, err := br.ReadString('\n')
		if strings.TrimSpace(line) != "" {
			return line, nil
		}
		if err != nil {
			return "", io.EOF
		}
	}
}

// ReadXYZ reads ONE frame from r. The cell edge is recovered from the
// cell_bohr= comment tag (required). For multi-frame streams use
// NewTrajectoryReader.
func ReadXYZ(r io.Reader) (*atoms.System, error) {
	return NewTrajectoryReader(r).Next()
}

func TestXYZRoundTrip(t *testing.T) {
	sys := atoms.BuildSiC(1)
	var buf bytes.Buffer
	if err := WriteXYZ(&buf, sys, "step=1 T=300"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXYZ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAtoms() != sys.NumAtoms() {
		t.Fatalf("atom count %d vs %d", got.NumAtoms(), sys.NumAtoms())
	}
	if d := got.Cell.L - sys.Cell.L; d > 1e-6 || d < -1e-6 {
		t.Fatalf("cell %g vs %g", got.Cell.L, sys.Cell.L)
	}
	for i := range sys.Atoms {
		if got.Atoms[i].Species != sys.Atoms[i].Species {
			t.Fatalf("species mismatch at %d", i)
		}
		if got.Cell.Distance(got.Atoms[i].Position, sys.Atoms[i].Position) > 1e-6 {
			t.Fatalf("position mismatch at %d", i)
		}
	}
}

func TestXYZMultiFrame(t *testing.T) {
	sys := atoms.BuildSiC(1)
	var buf bytes.Buffer
	for f := 0; f < 3; f++ {
		if err := WriteXYZ(&buf, sys, "frame"); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewTrajectoryReader(&buf)
	for f := 0; f < 3; f++ {
		if _, err := tr.Next(); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}
	if _, err := tr.Next(); err == nil {
		t.Fatal("expected EOF after last frame")
	}
}

func TestXYZErrors(t *testing.T) {
	if _, err := ReadXYZ(strings.NewReader("oops")); err == nil {
		t.Fatal("garbage header must fail")
	}
	if _, err := ReadXYZ(strings.NewReader("1\nno cell tag\nH 0 0 0\n")); err == nil {
		t.Fatal("missing cell tag must fail")
	}
	if _, err := ReadXYZ(strings.NewReader("1\ncell_bohr=10\nXx 0 0 0\n")); err == nil {
		t.Fatal("unknown species must fail")
	}
	if _, err := ReadXYZ(strings.NewReader("2\ncell_bohr=10\nH 0 0 0\n")); err == nil {
		t.Fatal("truncated frame must fail")
	}
}
