package cache

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
)

// goldenEntryFile was written once, by encodeEntry as it stood BEFORE the
// entry codec moved onto qio's shared envelope and wire primitives (commit
// e143560), from goldenEntry below. It pins the on-disk bytes of a
// warm-start entry.
const goldenEntryFile = "entry.wse"

// goldenEntry is the deterministic 5-atom / 4³-grid entry behind the
// fixture; only exact binary fractions and integer bit offsets are used.
func goldenEntry() *entryData {
	d := &entryData{
		CfgTag:        "golden-cfg/v1",
		CellL:         10,
		EnergyHa:      -37.8125,
		SCFIterations: 93,
		Symbols:       []string{"Si", "H"},
		Spec:          []uint8{0, 1, 0, 1, 1},
		GridN:         4,
	}
	for i := 0; i < 5; i++ {
		f := float64(i)
		d.Pos = append(d.Pos, geom.Vec3{X: math.Mod(1.25+3.5*f, 10), Y: math.Mod(2.5+6.25*f, 10), Z: math.Mod(8.75+4.125*f, 10)})
		d.Force = append(d.Force, geom.Vec3{X: -0.5 + 0.125*f, Y: 0.25 * (2 - f), Z: 0.0625 * f * f})
	}
	d.Rho = make([]float64, 64)
	for i := range d.Rho {
		bits := math.Float64bits(0.5) + uint64(i*37%101)
		if i%9 == 4 {
			bits += uint64(i) << 40
		}
		d.Rho[i] = math.Float64frombits(bits)
	}
	return d
}

func readGoldenEntry(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", goldenEntryFile))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenEntry: the fixture decodes to the constructor's value, and
// both that value and the decoded one encode back to it byte for byte.
func TestGoldenEntry(t *testing.T) {
	want := readGoldenEntry(t)
	if len(want) >= 1024 {
		t.Fatalf("fixture is %d bytes, want < 1 kB", len(want))
	}
	got, err := decodeEntry(want, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenEntry()) {
		t.Fatalf("decoded entry differs from the constructor:\n got %+v\nwant %+v", got, goldenEntry())
	}
	for what, d := range map[string]*entryData{"constructor": goldenEntry(), "decoded": got} {
		raw, err := encodeEntry(d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("%s value encodes to %d bytes that differ from the %d-byte fixture", what, len(raw), len(want))
		}
	}
	// The index-rebuild path skips the density but sees the same header.
	head, err := decodeEntry(want, false)
	if err != nil {
		t.Fatal(err)
	}
	if head.Rho != nil || head.CfgTag != got.CfgTag || !reflect.DeepEqual(head.Pos, got.Pos) {
		t.Fatalf("header-only decode: %+v", head)
	}
}

// TestGoldenEntryHitsAfterReopen drops the fixture into a directory the
// way a previous build's daemon left it, reopens the cache and expects an
// exact hit carrying the stored result.
func TestGoldenEntryHitsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "left-by-a-previous-build"+entryExt), readGoldenEntry(t), 0o644); err != nil {
		t.Fatal(err)
	}
	c := openTest(t, Options{Dir: dir})
	if st := c.Stats(); st.Entries != 1 || st.Corrupt != 0 {
		t.Fatalf("after reopen: %+v", st)
	}
	d := goldenEntry()
	sys := &atoms.System{Cell: geom.Cell{L: d.CellL}}
	for i, p := range d.Pos {
		sys.Atoms = append(sys.Atoms, atoms.Atom{Species: atoms.SpeciesBySymbol(d.Symbols[d.Spec[i]]), Position: p})
	}
	res, tier := c.Lookup(sys, d.CfgTag, false)
	if tier != TierExact {
		t.Fatalf("tier %v, want exact", tier)
	}
	if res.EnergyHa != d.EnergyHa || res.SCFIterations != d.SCFIterations ||
		!reflect.DeepEqual(res.Forces, d.Force) || !reflect.DeepEqual(res.Rho.Data, d.Rho) {
		t.Fatalf("hit payload differs from the fixture: %+v", res)
	}
}
