package qio

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ldcdft/internal/geom"
)

func deltaTestBase(t *testing.T) (*Checkpoint, string, *DeltaBase, int64) {
	t.Helper()
	const gridN = 12
	rng := rand.New(rand.NewSource(7))
	n := 24
	ck := &Checkpoint{
		Step:          5,
		DtFs:          0.242,
		CellL:         16.0,
		Energy:        -7.5,
		Symbols:       []string{"Si", "C"},
		GridN:         gridN,
		Rho:           make([]float64, gridN*gridN*gridN),
		SCFIterations: 90,
		Energies:      []float64{-7.1, -7.3, -7.4, -7.45, -7.5},
		Temperatures:  []float64{300, 310, 305, 302, 301},
	}
	for i := 0; i < n; i++ {
		ck.Spec = append(ck.Spec, uint8(i%2))
		ck.Pos = append(ck.Pos, geom.Vec3{X: rng.Float64() * 16, Y: rng.Float64() * 16, Z: rng.Float64() * 16})
		ck.Vel = append(ck.Vel, geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
		ck.Force = append(ck.Force, geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
	}
	for i := range ck.Rho {
		ck.Rho[i] = 0.01 + 0.001*math.Sin(float64(i)*0.01)
	}
	basePath := filepath.Join(t.TempDir(), "base.ck")
	base, baseBytes, err := WriteCheckpointBase(basePath, ck, CheckpointWriteOptions{DomainsPerAxis: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ck, basePath, base, baseBytes
}

// advance returns a copy of ck evolved one "MD step": a handful of atoms
// moved, the per-step record appended, and a small patch of the density
// perturbed — the sparse-change regime deltas are built for.
func advance(ck *Checkpoint, movedAtoms, changedPoints int) *Checkpoint {
	next := *ck
	next.Pos = append([]geom.Vec3(nil), ck.Pos...)
	next.Vel = append([]geom.Vec3(nil), ck.Vel...)
	next.Force = append([]geom.Vec3(nil), ck.Force...)
	next.Spec = append([]uint8(nil), ck.Spec...)
	next.Rho = append([]float64(nil), ck.Rho...)
	next.Step++
	next.Energy -= 0.01
	next.SCFIterations += 17
	next.Energies = append(append([]float64(nil), ck.Energies...), next.Energy)
	next.Temperatures = append(append([]float64(nil), ck.Temperatures...), 299.5)
	for i := 0; i < movedAtoms && i < len(next.Pos); i++ {
		next.Pos[i].X += 0.01 * float64(i+1)
		next.Vel[i].Y -= 0.002
		next.Force[i].Z += 0.1
	}
	for i := 0; i < changedPoints && i < len(next.Rho); i++ {
		next.Rho[i] += 1e-6
	}
	return &next
}

func sameCheckpoint(t *testing.T, got, want *Checkpoint) {
	t.Helper()
	if got.Step != want.Step || got.DtFs != want.DtFs || got.CellL != want.CellL ||
		got.Energy != want.Energy || got.GridN != want.GridN ||
		got.SCFIterations != want.SCFIterations {
		t.Fatalf("scalar state mismatch: %+v vs %+v", got, want)
	}
	for i := range want.Symbols {
		if got.Symbols[i] != want.Symbols[i] {
			t.Fatalf("symbol %d: %q vs %q", i, got.Symbols[i], want.Symbols[i])
		}
	}
	for i := range want.Pos {
		if got.Spec[i] != want.Spec[i] || got.Pos[i] != want.Pos[i] ||
			got.Vel[i] != want.Vel[i] || got.Force[i] != want.Force[i] {
			t.Fatalf("atom %d mismatch", i)
		}
	}
	for i := range want.Rho {
		if got.Rho[i] != want.Rho[i] {
			t.Fatalf("density point %d: %v vs %v", i, got.Rho[i], want.Rho[i])
		}
	}
	if len(got.Energies) != len(want.Energies) || len(got.Temperatures) != len(want.Temperatures) {
		t.Fatalf("record lengths: %d/%d vs %d/%d",
			len(got.Energies), len(got.Temperatures), len(want.Energies), len(want.Temperatures))
	}
	for i := range want.Energies {
		if got.Energies[i] != want.Energies[i] {
			t.Fatalf("energy %d: %v vs %v", i, got.Energies[i], want.Energies[i])
		}
	}
	for i := range want.Temperatures {
		if got.Temperatures[i] != want.Temperatures[i] {
			t.Fatalf("temperature %d: %v vs %v", i, got.Temperatures[i], want.Temperatures[i])
		}
	}
	sameHistories(t, got, want)
}

func TestDeltaCheckpointRoundTrip(t *testing.T) {
	_, basePath, base, baseBytes := deltaTestBase(t)
	next := advance(base.Ck, 3, 100)

	deltaPath := basePath + ".delta"
	deltaBytes, err := WriteCheckpointDelta(deltaPath, next, base)
	if err != nil {
		t.Fatal(err)
	}
	if deltaBytes >= baseBytes/2 {
		t.Fatalf("delta (%d B) not small vs base (%d B): sparse codec not paying off", deltaBytes, baseBytes)
	}

	got, err := ReadCheckpointDelta(deltaPath, base)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, got, next)

	// The reconstructed checkpoint restores a valid system.
	if _, err := got.RestoreSystem(); err != nil {
		t.Fatal(err)
	}

	// Reloading the base from disk (as a resume would) applies the same
	// delta identically.
	reloaded, err := LoadCheckpointBase(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.CRC != base.CRC {
		t.Fatalf("reloaded base CRC %08x vs written %08x", reloaded.CRC, base.CRC)
	}
	got2, err := ReadCheckpointDelta(deltaPath, reloaded)
	if err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, got2, next)
}

func TestDeltaCheckpointStaleAndCorrupt(t *testing.T) {
	ck, basePath, base, _ := deltaTestBase(t)
	next := advance(base.Ck, 2, 10)
	deltaPath := basePath + ".delta"
	if _, err := WriteCheckpointDelta(deltaPath, next, base); err != nil {
		t.Fatal(err)
	}

	// A delta is bound to the exact base bytes: a different base refuses it.
	other := *base
	other.CRC ^= 0xdeadbeef
	if _, err := ReadCheckpointDelta(deltaPath, &other); !errors.Is(err, ErrDeltaStale) {
		t.Fatalf("stale delta: got %v, want ErrDeltaStale", err)
	}

	// Shape changes refuse the delta write with ErrDeltaIncompatible.
	grown := advance(base.Ck, 0, 0)
	grown.Pos = append(grown.Pos, geom.Vec3{})
	grown.Vel = append(grown.Vel, geom.Vec3{})
	grown.Force = append(grown.Force, geom.Vec3{})
	grown.Spec = append(grown.Spec, 0)
	if _, err := WriteCheckpointDelta(deltaPath, grown, base); !errors.Is(err, ErrDeltaIncompatible) {
		t.Fatalf("grown system: got %v, want ErrDeltaIncompatible", err)
	}
	rewound := advance(base.Ck, 0, 0)
	rewound.Step = ck.Step - 1
	if _, err := WriteCheckpointDelta(deltaPath, rewound, base); !errors.Is(err, ErrDeltaIncompatible) {
		t.Fatalf("rewound step: got %v, want ErrDeltaIncompatible", err)
	}

	// Bit flips are caught by the CRC.
	raw, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if _, err := DecodeCheckpointDelta(raw, base); err == nil {
		t.Fatal("corrupted delta decoded without error")
	}
}

func TestFieldDeltaCodec(t *testing.T) {
	const n = 10
	base := make([]float64, n*n*n)
	rng := rand.New(rand.NewSource(3))
	for i := range base {
		base[i] = rng.NormFloat64()
	}

	// Identical field: a handful of bytes, exact round trip.
	enc, err := CompressFieldDelta(base, base, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > 4 {
		t.Fatalf("identical-field delta is %d bytes", len(enc))
	}
	dec, err := DecompressFieldDelta(enc, base, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if dec[i] != base[i] {
			t.Fatalf("point %d: %v vs %v", i, dec[i], base[i])
		}
	}

	// Sparse change: round trips bitwise, far smaller than a full encode.
	data := append([]float64(nil), base...)
	for i := 0; i < len(data); i += 37 {
		data[i] = rng.NormFloat64()
	}
	data[0] = math.Inf(1)
	data[1] = math.NaN()
	enc, err = CompressFieldDelta(data, base, n)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CompressField(data, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(full)/2 {
		t.Fatalf("sparse delta %d B vs full %d B", len(enc), len(full))
	}
	dec, err = DecompressFieldDelta(enc, base, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Float64bits(dec[i]) != math.Float64bits(data[i]) {
			t.Fatalf("point %d: %v vs %v", i, dec[i], data[i])
		}
	}

	// Dense change degrades gracefully (still correct).
	for i := range data {
		data[i] += 1e-9
	}
	enc, err = CompressFieldDelta(data, base, n)
	if err != nil {
		t.Fatal(err)
	}
	dec, err = DecompressFieldDelta(enc, base, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Float64bits(dec[i]) != math.Float64bits(data[i]) {
			t.Fatalf("dense point %d: %v vs %v", i, dec[i], data[i])
		}
	}

	// Truncated and oversized streams error instead of panicking.
	if _, err := DecompressFieldDelta(enc[:len(enc)/2], base, n); err == nil {
		t.Fatal("truncated delta stream decoded")
	}
	if _, err := DecompressFieldDelta(append(enc, 0x1), base, n); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// A delta at or above the writer's limit is refused before the file is
// touched; one below it is written as WriteCheckpointDelta writes it.
func TestWriteCheckpointDeltaBelow(t *testing.T) {
	_, basePath, base, _ := deltaTestBase(t)
	next := advance(base.Ck, 3, 100)
	raw, err := encodeDelta(next, base)
	if err != nil {
		t.Fatal(err)
	}
	path := basePath + ".delta"
	if _, err := WriteCheckpointDeltaBelow(path, next, base, int64(len(raw))); !errors.Is(err, ErrDeltaTooLarge) {
		t.Fatalf("delta of exactly the limit: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused delta touched the file: %v", err)
	}
	n, err := WriteCheckpointDeltaBelow(path, next, base, int64(len(raw))+1)
	if err != nil || n != int64(len(raw)) {
		t.Fatalf("delta below the limit: %d bytes, %v", n, err)
	}
}
