package qio

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
)

func testSystem(t *testing.T, n int) *atoms.System {
	t.Helper()
	sys := atoms.BuildSiC(n)
	rng := rand.New(rand.NewSource(7))
	sys.InitVelocities(500, rng)
	return sys
}

func testCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	sys := testSystem(t, 1)
	ck, err := CheckpointFromSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	ck.Step = 3
	ck.DtFs = 0.242
	ck.Energy = -12.3456789
	ck.Force = make([]geom.Vec3, sys.NumAtoms())
	for i := range ck.Force {
		ck.Force[i] = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	ck.GridN = 12
	ck.Rho = make([]float64, 12*12*12)
	for i := range ck.Rho {
		// Smooth-ish positive field with noise, as a real density is.
		ck.Rho[i] = 0.5 + 0.01*rng.Float64()
	}
	ck.SCFIterations = 42
	ck.Energies = []float64{-12.0, -12.2, -12.3456789}
	ck.Temperatures = []float64{300, 310, 305}
	return ck
}

func checkpointsEqual(t *testing.T, a, b *Checkpoint) {
	t.Helper()
	if a.Step != b.Step || a.DtFs != b.DtFs || a.CellL != b.CellL ||
		a.Energy != b.Energy || a.GridN != b.GridN || a.SCFIterations != b.SCFIterations {
		t.Fatalf("scalar mismatch: %+v vs %+v", a, b)
	}
	if len(a.Symbols) != len(b.Symbols) {
		t.Fatalf("species tables %v vs %v", a.Symbols, b.Symbols)
	}
	for i := range a.Symbols {
		if a.Symbols[i] != b.Symbols[i] {
			t.Fatalf("species %d: %q vs %q", i, a.Symbols[i], b.Symbols[i])
		}
	}
	for i := range a.Pos {
		if a.Spec[i] != b.Spec[i] || a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] {
			t.Fatalf("atom %d mismatch", i)
		}
		if (a.Force == nil) != (b.Force == nil) {
			t.Fatal("force presence mismatch")
		}
		if a.Force != nil && a.Force[i] != b.Force[i] {
			t.Fatalf("force %d mismatch", i)
		}
	}
	for i := range a.Rho {
		if math.Float64bits(a.Rho[i]) != math.Float64bits(b.Rho[i]) {
			t.Fatalf("density point %d not bitwise equal: %v vs %v", i, a.Rho[i], b.Rho[i])
		}
	}
	if len(a.Energies) != len(b.Energies) || len(a.Temperatures) != len(b.Temperatures) {
		t.Fatal("trajectory record length mismatch")
	}
	for i := range a.Energies {
		if a.Energies[i] != b.Energies[i] {
			t.Fatalf("energy %d mismatch", i)
		}
	}
	for i := range a.Temperatures {
		if a.Temperatures[i] != b.Temperatures[i] {
			t.Fatalf("temperature %d mismatch", i)
		}
	}
	sameHistories(t, a, b)
}

// sameHistories fails unless a and b carry the same ρα histories, bit
// for bit, with the same vacuum (nil) entries.
func sameHistories(t *testing.T, a, b *Checkpoint) {
	t.Helper()
	if len(a.Hist) != len(b.Hist) || (len(a.Hist) > 0 && a.HistN != b.HistN) {
		t.Fatalf("histories: %d at edge %d vs %d at edge %d", len(a.Hist), a.HistN, len(b.Hist), b.HistN)
	}
	for d := range a.Hist {
		if (a.Hist[d] == nil) != (b.Hist[d] == nil) || len(a.Hist[d]) != len(b.Hist[d]) {
			t.Fatalf("domain %d history: %d vs %d points", d, len(a.Hist[d]), len(b.Hist[d]))
		}
		for i := range a.Hist[d] {
			if math.Float64bits(a.Hist[d][i]) != math.Float64bits(b.Hist[d][i]) {
				t.Fatalf("domain %d history point %d not bitwise equal", d, i)
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := testCheckpoint(t)
	path := filepath.Join(t.TempDir(), "ck.qmd")
	n, err := WriteCheckpoint(path, ck, CheckpointWriteOptions{DomainsPerAxis: 2})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("reported %d bytes, file has %d", n, fi.Size())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	checkpointsEqual(t, ck, got)

	// The restored system must reproduce the original bitwise.
	sys, err := got.RestoreSystem()
	if err != nil {
		t.Fatal(err)
	}
	orig := testSystem(t, 1)
	for i := range orig.Atoms {
		if sys.Atoms[i].Position != orig.Atoms[i].Position ||
			sys.Atoms[i].Velocity != orig.Atoms[i].Velocity ||
			sys.Atoms[i].Species != orig.Atoms[i].Species {
			t.Fatalf("restored atom %d differs", i)
		}
	}
}

func TestCheckpointRoundTripNoForcesNoDensity(t *testing.T) {
	ck := testCheckpoint(t)
	ck.Force = nil
	ck.GridN = 0
	ck.Rho = nil
	path := filepath.Join(t.TempDir(), "ck.qmd")
	if _, err := WriteCheckpoint(path, ck, CheckpointWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Force != nil || got.GridN != 0 || got.Rho != nil {
		t.Fatal("absent sections came back non-empty")
	}
	checkpointsEqual(t, ck, got)
}

// TestCheckpointTruncated asserts every truncation length yields a clean
// versioned-format error, never a panic or nil error.
func TestCheckpointTruncated(t *testing.T) {
	ck := testCheckpoint(t)
	path := filepath.Join(t.TempDir(), "ck.qmd")
	if _, err := WriteCheckpoint(path, ck, CheckpointWriteOptions{DomainsPerAxis: 2}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 7, 8, 11, 12, 20, len(raw) / 4, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		if _, _, err := decodeCheckpoint(raw[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes: no error", cut)
		} else if !strings.Contains(err.Error(), "checkpoint") {
			t.Fatalf("truncation to %d bytes: unexpected error %v", cut, err)
		}
	}
}

func TestCheckpointCorrupted(t *testing.T) {
	ck := testCheckpoint(t)
	path := filepath.Join(t.TempDir(), "ck.qmd")
	if _, err := WriteCheckpoint(path, ck, CheckpointWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle: the CRC must catch it.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x40
	if _, _, err := decodeCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted file: %v", err)
	}
	// Bad magic.
	bad = append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, _, err := decodeCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
	// Future version must be rejected, not misparsed.
	bad = append([]byte(nil), raw...)
	bad[len(checkpointMagic)] = CheckpointVersion + 1
	if _, _, err := decodeCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v", err)
	}
}

func TestFieldCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 16, 24} {
		data := make([]float64, n*n*n)
		for i := range data {
			data[i] = rng.NormFloat64() * math.Exp(float64(i%7))
		}
		buf, err := CompressField(data, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecompressField(buf, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if math.Float64bits(data[i]) != math.Float64bits(got[i]) {
				t.Fatalf("n=%d point %d not bitwise equal", n, i)
			}
		}
	}
	if _, err := CompressField(make([]float64, 7), 2); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := DecompressField([]byte{0x80}, 2); err == nil {
		t.Fatal("truncated varint accepted")
	}
}

// TestFieldCodecCompressesSmoothFields checks the Hilbert-order XOR-delta
// scheme actually shrinks a smooth density-like field.
func TestFieldCodecCompressesSmoothFields(t *testing.T) {
	n := 16
	data := make([]float64, n*n*n)
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				data[(ix*n+iy)*n+iz] = 0.5 + 0.1*math.Sin(float64(ix)/3)*math.Cos(float64(iy)/3)*math.Sin(float64(iz)/3)
			}
		}
	}
	buf, err := CompressField(data, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) >= len(data)*8 {
		t.Fatalf("smooth field did not compress: %d bytes for %d raw", len(buf), len(data)*8)
	}
}

// TestCheckpointConcurrentWrites hammers the checkpoint write path
// from many goroutines (distinct paths, shared perf phases and Hilbert
// order caches) — the race-detector coverage for checkpoint writes
// during a trajectory.
func TestCheckpointConcurrentWrites(t *testing.T) {
	ck := testCheckpoint(t)
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := filepath.Join(dir, "ck", "w"+string(rune('0'+w))+".qmd")
			os.MkdirAll(filepath.Dir(path), 0o755)
			for i := 0; i < 5; i++ {
				if _, err := WriteCheckpoint(path, ck, CheckpointWriteOptions{DomainsPerAxis: 2}); err != nil {
					errs <- err
					return
				}
				if _, err := ReadCheckpoint(path); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCheckpointReadWhileWrite races resumes against in-progress writes
// on a single path: a writer alternates between two self-consistent
// checkpoint versions while readers hammer ReadCheckpoint. Every read
// must decode a complete checkpoint that is entirely one version or
// entirely the other — the tmp-file + rename discipline must never
// expose a torn or partially-written file.
func TestCheckpointReadWhileWrite(t *testing.T) {
	// version builds a checkpoint whose every varying field is derived
	// from v, so a reader can detect any cross-version mixing.
	version := func(v int) *Checkpoint {
		ck := testCheckpoint(t)
		ck.Step = v
		ck.Energy = -float64(v)
		for i := range ck.Rho {
			ck.Rho[i] = float64(v)
		}
		ck.Energies = []float64{-float64(v)}
		ck.Temperatures = []float64{float64(100 * v)}
		return ck
	}
	versions := []*Checkpoint{version(1), version(2)}
	coherent := func(ck *Checkpoint) error {
		v := ck.Step
		if v != 1 && v != 2 {
			return fmt.Errorf("unknown version step %d", v)
		}
		if ck.Energy != -float64(v) {
			return fmt.Errorf("version %d: energy %v", v, ck.Energy)
		}
		for i, r := range ck.Rho {
			if r != float64(v) {
				return fmt.Errorf("version %d: rho[%d] = %v (torn density)", v, i, r)
			}
		}
		if len(ck.Energies) != 1 || ck.Energies[0] != -float64(v) ||
			len(ck.Temperatures) != 1 || ck.Temperatures[0] != float64(100*v) {
			return fmt.Errorf("version %d: trajectory record %v / %v", v, ck.Energies, ck.Temperatures)
		}
		return nil
	}

	path := filepath.Join(t.TempDir(), "ck.qmd")
	if _, err := WriteCheckpoint(path, versions[0], CheckpointWriteOptions{DomainsPerAxis: 2}); err != nil {
		t.Fatal(err)
	}

	const writes = 200
	stop := make(chan struct{})
	errs := make(chan error, 5)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 1; i <= writes; i++ {
			if _, err := WriteCheckpoint(path, versions[i%2], CheckpointWriteOptions{DomainsPerAxis: 2}); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ck, err := ReadCheckpoint(path)
				if err != nil {
					errs <- fmt.Errorf("read during write: %w", err)
					return
				}
				if err := coherent(ck); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
