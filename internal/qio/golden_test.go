package qio

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ldcdft/internal/geom"
)

// Golden byte fixtures under testdata/. They were written once, by the
// code as it stood BEFORE the codecs moved onto frame.go (commit e143560),
// from the constructors below. They pin the on-disk bytes: a change to the
// encoders that alters one byte of any fixture is a format change and
// needs a version bump, not a re-pin.
const (
	goldenFullD1  = "full_d1.ck"       // DomainsPerAxis 1
	goldenFullD2  = "full_d2.ck"       // DomainsPerAxis 2 (8 atom sections)
	goldenDeltaD1 = "delta_d1.ckd"     // goldenPerturbed against full_d1.ck
	goldenDeltaD2 = "delta_d2.ckd"     // goldenPerturbed against full_d2.ck
	goldenBare    = "bare.ck"          // no forces, no density, default options
	goldenGridN   = 4                  // density grid edge
	goldenCellL   = 10.0               // cell edge (Bohr)
	goldenAtoms   = 5                  // atom count
	goldenBits    = 0x3fe0000000000000 // float64 bits of 0.5, the density floor
)

// goldenCheckpoint is the deterministic 5-atom / 4³-grid state every
// fixture derives from. Only exact binary fractions and integer bit
// offsets are used, so the value is identical on every platform.
func goldenCheckpoint() *Checkpoint {
	ck := &Checkpoint{
		Step:          7,
		DtFs:          0.25,
		CellL:         goldenCellL,
		Symbols:       []string{"Si", "C", "H"},
		Spec:          []uint8{0, 1, 0, 2, 1},
		Energy:        -37.8125,
		GridN:         goldenGridN,
		SCFIterations: 93,
		Energies:      []float64{-37.5, -37.75, -37.8125},
		Temperatures:  []float64{300, 312.5, 306.25},
	}
	for i := 0; i < goldenAtoms; i++ {
		f := float64(i)
		// One atom per octant-ish region so DomainsPerAxis 2 spreads them
		// over several atom sections (and leaves some sections empty).
		ck.Pos = append(ck.Pos, geom.Vec3{X: math.Mod(1.25+3.5*f, goldenCellL), Y: math.Mod(2.5+6.25*f, goldenCellL), Z: math.Mod(8.75+4.125*f, goldenCellL)})
		ck.Vel = append(ck.Vel, geom.Vec3{X: 0.03125 * (f - 2), Y: -0.015625 * f, Z: 0.0078125 * (f*f - 3)})
		ck.Force = append(ck.Force, geom.Vec3{X: -0.5 + 0.125*f, Y: 0.25 * (2 - f), Z: 0.0625 * f * f})
	}
	ck.Rho = make([]float64, goldenGridN*goldenGridN*goldenGridN)
	for i := range ck.Rho {
		// A smooth density differs between Hilbert neighbours in the low
		// mantissa bits only; every ninth point takes a large step.
		bits := uint64(goldenBits) + uint64(i*37%101)
		if i%9 == 4 {
			bits += uint64(i) << 40
		}
		ck.Rho[i] = math.Float64frombits(bits)
	}
	return ck
}

// goldenPerturbed is goldenCheckpoint two steps later: two atoms moved,
// every force re-evaluated for one of them, the per-step record grown by
// two, a handful of density points changed.
func goldenPerturbed() *Checkpoint {
	ck := goldenCheckpoint()
	ck.Step = 9
	ck.Energy = -37.84375
	ck.SCFIterations = 121
	ck.Energies = append(ck.Energies, -37.828125, -37.84375)
	ck.Temperatures = append(ck.Temperatures, 303.125, 301.5)
	ck.Pos[1].X += 0.001953125
	ck.Vel[1].Y -= 0.000244140625
	ck.Force[1] = geom.Vec3{X: 0.375, Y: -0.125, Z: 0.0625}
	ck.Pos[4].Z -= 0.00390625
	for _, i := range []int{3, 17, 18, 19, 40, 63} {
		ck.Rho[i] = math.Float64frombits(math.Float64bits(ck.Rho[i]) + uint64(i+1))
	}
	return ck
}

// goldenBareCheckpoint is goldenCheckpoint without forces or density.
func goldenBareCheckpoint() *Checkpoint {
	ck := goldenCheckpoint()
	ck.Force, ck.GridN, ck.Rho = nil, 0, nil
	return ck
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// bytesWritten runs write against a fresh path and returns the file.
func bytesWritten(t *testing.T, write func(path string) error) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out")
	if err := write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func goldenOpts(domainsPerAxis int) CheckpointWriteOptions {
	return CheckpointWriteOptions{DomainsPerAxis: domainsPerAxis}
}

// TestGoldenFullCheckpoints: each full fixture decodes to the
// constructor's value, and both the constructor's value and the decoded
// value encode back to the fixture byte for byte.
func TestGoldenFullCheckpoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		ck   *Checkpoint
		opts CheckpointWriteOptions
	}{
		{goldenFullD1, goldenCheckpoint(), goldenOpts(1)},
		{goldenFullD2, goldenCheckpoint(), goldenOpts(2)},
		{goldenBare, goldenBareCheckpoint(), CheckpointWriteOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := readGolden(t, tc.name)
			if len(want) >= 1024 {
				t.Fatalf("fixture is %d bytes, want < 1 kB", len(want))
			}
			got, _, err := decodeCheckpoint(want)
			if err != nil {
				t.Fatal(err)
			}
			checkpointsEqual(t, tc.ck, got)
			if (got.Force == nil) != (tc.ck.Force == nil) || got.GridN != tc.ck.GridN || len(got.Rho) != len(tc.ck.Rho) {
				t.Fatal("optional sections differ")
			}
			for what, ck := range map[string]*Checkpoint{"constructor": tc.ck, "decoded": got} {
				raw := bytesWritten(t, func(path string) error {
					_, err := WriteCheckpoint(path, ck, tc.opts)
					return err
				})
				if !bytes.Equal(raw, want) {
					t.Fatalf("%s value encodes to %d bytes that differ from the %d-byte fixture", what, len(raw), len(want))
				}
			}
		})
	}
}

// TestGoldenDeltas: each delta fixture is bound to its base fixture's
// trailer, applies to the perturbed state, and is reproduced byte for
// byte from both the constructor's and the decoded value. Loading the
// pair the way a resume does (LoadCheckpointBase + ApplyDeltaIfPresent)
// is the "files written by the previous build still resume" check.
func TestGoldenDeltas(t *testing.T) {
	for _, tc := range []struct{ base, delta string }{
		{goldenFullD1, goldenDeltaD1},
		{goldenFullD2, goldenDeltaD2},
	} {
		t.Run(tc.delta, func(t *testing.T) {
			dir := t.TempDir()
			basePath, deltaPath := filepath.Join(dir, "checkpoint.ck"), filepath.Join(dir, "checkpoint.ck.delta")
			baseRaw, want := readGolden(t, tc.base), readGolden(t, tc.delta)
			if len(want) >= 1024 {
				t.Fatalf("fixture is %d bytes, want < 1 kB", len(want))
			}
			if err := os.WriteFile(basePath, baseRaw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(deltaPath, want, 0o644); err != nil {
				t.Fatal(err)
			}
			base, err := LoadCheckpointBase(basePath)
			if err != nil {
				t.Fatal(err)
			}
			trailer := binary.LittleEndian.Uint32(baseRaw[len(baseRaw)-4:])
			if bound := binary.LittleEndian.Uint32(want[len(deltaMagic)+4:]); bound != trailer || base.CRC != trailer {
				t.Fatalf("delta bound to %08x, base trailer %08x, loaded base CRC %08x", bound, trailer, base.CRC)
			}
			got, err := ApplyDeltaIfPresent(base, deltaPath)
			if err != nil {
				t.Fatal(err)
			}
			checkpointsEqual(t, goldenPerturbed(), got)
			for what, ck := range map[string]*Checkpoint{"constructor": goldenPerturbed(), "decoded": got} {
				raw := bytesWritten(t, func(path string) error {
					_, err := WriteCheckpointDelta(path, ck, base)
					return err
				})
				if !bytes.Equal(raw, want) {
					t.Fatalf("%s value encodes to %d bytes that differ from the %d-byte fixture", what, len(raw), len(want))
				}
			}
			// The other base's delta is stale here, and silently ignored.
			other := goldenDeltaD1
			if tc.delta == goldenDeltaD1 {
				other = goldenDeltaD2
			}
			if err := os.WriteFile(deltaPath, readGolden(t, other), 0o644); err != nil {
				t.Fatal(err)
			}
			if ck, err := ApplyDeltaIfPresent(base, deltaPath); err != nil || ck != base.Ck {
				t.Fatalf("stale delta: ck %p (base %p), err %v", ck, base.Ck, err)
			}
		})
	}
}
