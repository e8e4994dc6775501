package cache

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ldcdft/internal/atoms"
)

// reseal rewrites the CRC trailer of a copy of raw, so a deliberately
// damaged entry gets past the envelope and reaches the section parser.
func reseal(raw []byte) []byte {
	out := bytes.Clone(raw)
	if len(out) >= 4 {
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	}
	return out
}

// allocatedBy returns the bytes f allocated (runtime TotalAlloc delta).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeEntryBoundsGridEdge rewrites the golden entry's GridN (the
// last byte of its header section) from 4 to 127 — 2 M points, 57 MB of
// work if believed — reseals the CRC, and expects a cheap rejection.
func TestDecodeEntryBoundsGridEdge(t *testing.T) {
	raw := readGoldenEntry(t)
	hdrLen, k := binary.Uvarint(raw[len(entryMagic)+4:])
	at := len(entryMagic) + 4 + k + int(hdrLen) - 1
	if raw[at] != 4 {
		t.Fatalf("GridN is not where the layout says: %d", raw[at])
	}
	raw[at] = 127
	raw = reseal(raw)
	var err error
	got := allocatedBy(func() { _, err = decodeEntry(raw, true) })
	if err == nil || !strings.Contains(err.Error(), "field edge 127") {
		t.Fatalf("%v, want the field-edge rejection", err)
	}
	if got >= 1<<20 {
		t.Fatalf("rejected after allocating %d bytes, want < 1 MiB", got)
	}
}

// FuzzDecodeEntry: see the qio fuzz targets for the scheme (each input
// as is and resealed; no panic, bounded allocation, nothing but the intact
// fixture accepted with the CRC it came with, encode → decode → encode is
// a fixed point). The golden entry seeds the corpus.
func FuzzDecodeEntry(f *testing.F) {
	golden := readGoldenEntry(f)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	flipped := bytes.Clone(golden)
	flipped[len(flipped)/3] ^= 0x55
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, raw []byte) {
		inputs := [][]byte{raw}
		if fixed := reseal(raw); !bytes.Equal(fixed, raw) {
			inputs = append(inputs, fixed)
		}
		for i, in := range inputs {
			var d *entryData
			var err error
			// 28 bytes per density point (Hilbert order, sort keys, field),
			// a point costs at least one input byte; 1 MiB for the rest.
			if got := allocatedBy(func() { d, err = decodeEntry(in, true) }); got > 64*uint64(len(in))+1<<20 {
				t.Fatalf("decoding %d bytes allocated %d", len(in), got)
			}
			if head, herr := decodeEntry(in, false); err == nil && (herr != nil || head.Rho != nil || head.GridN != d.GridN) {
				t.Fatalf("header-only decode disagrees with the full one: %v", herr)
			}
			if err != nil {
				continue
			}
			if i == 0 && !bytes.Equal(in, golden) {
				t.Fatalf("a %d-byte input that is not the fixture was accepted with the CRC it came with", len(in))
			}
			again, err := encodeEntry(d)
			if err != nil {
				continue // e.g. a non-positive cell: decodable, not writable
			}
			d2, err := decodeEntry(again, true)
			if err != nil {
				t.Fatalf("re-encoded entry does not decode: %v", err)
			}
			if twice, err := encodeEntry(d2); err != nil || !bytes.Equal(twice, again) {
				t.Fatalf("encode → decode → encode is not a fixed point (%v)", err)
			}
		}
	})
}

// TestPutFailuresLeaveCacheIntact: a Put that cannot commit — the entry's
// name is squatted by a non-empty directory, or the cache directory is
// gone — returns an error, leaves no temp, and leaves the entries already
// stored readable.
func TestPutFailuresLeaveCacheIntact(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, Options{Dir: dir})
	kept := testSystem(1)
	want := testResult(kept, 6, 9, 1)
	if err := c.Put(kept, tag, want); err != nil {
		t.Fatal(err)
	}
	temps := func() []string { m, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); return m }
	stillHits := func(sys *atoms.System, energy float64) {
		t.Helper()
		if res, tier := c.Lookup(sys, tag, false); tier != TierExact || res.EnergyHa != energy {
			t.Fatalf("stored entry no longer hits: tier %v", tier)
		}
	}

	blocked := testSystem(2)
	_, key := systemHashes(blocked, tag)
	if err := os.MkdirAll(filepath.Join(c.path(key), "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(blocked, tag, testResult(blocked, 6, 9, 2)); err == nil {
		t.Fatal("Put over a non-empty directory reported success")
	}
	if left := temps(); left != nil {
		t.Fatalf("temp files left: %v", left)
	}
	if _, tier := c.Lookup(blocked, tag, false); tier != TierMiss {
		t.Fatalf("failed Put was indexed: tier %v", tier)
	}
	stillHits(kept, want.EnergyHa)

	// The cache directory vanished under a live cache.
	gone := filepath.Join(t.TempDir(), "gone")
	c2 := openTest(t, Options{Dir: gone})
	if err := os.RemoveAll(gone); err != nil {
		t.Fatal(err)
	}
	if err := c2.Put(kept, tag, want); err == nil {
		t.Fatal("Put into a missing directory reported success")
	}
	if st := c2.Stats(); st.Entries != 0 {
		t.Fatalf("failed Put was indexed: %+v", st)
	}
}

// TestOpenRemovesOrphanedTemps: a Put killed before its commit leaves a
// temp that no index entry and no byte budget accounts for; the next Open
// of the directory clears it and keeps the entries.
func TestOpenRemovesOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, Options{Dir: dir})
	sys := testSystem(1)
	if err := c.Put(sys, tag, testResult(sys, 6, 9, 1)); err != nil {
		t.Fatal(err)
	}
	_, key := systemHashes(sys, tag)
	orphan := c.path(key) + ".0badc0de.tmp"
	if err := os.WriteFile(orphan, []byte("half an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	c = openTest(t, Options{Dir: dir})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp survived Open: %v", err)
	}
	if st := c.Stats(); st.Entries != 1 || st.Corrupt != 0 {
		t.Fatalf("after reopening: %+v", st)
	}
}
