package qio

import (
	"bytes"
	"math"
	"testing"
)

// Fuzz targets over the decoders that share frame.go. A mutated file
// almost never passes the CRC, so every input is also run with its
// trailer resealed — that is what carries mutations into the section
// parsers. Properties: no panic; bytes allocated stay within fuzzBudget
// of the input size; an input accepted as it came is one of the intact
// fixtures (nothing else the fuzzer makes carries a right CRC, short of
// guessing 32 bits); a decode that succeeds re-encodes to bytes that
// decode again and re-encode identically (comparing encodings rather
// than values keeps NaN payloads and overlong input varints out of the
// way). The golden fixtures, and a checkpoint and a delta carrying ρα
// histories (encoded from the constructors of history_test.go), are the
// seed corpus, so plain `go test` runs each target over them; `make
// fuzz-smoke` mutates for a few seconds.

// fuzzBudget is what decoding n input bytes may allocate: the Hilbert
// order, its sort keys and the field cost 28 bytes per density point and
// a point costs at least one input byte; 1 MiB covers everything fixed.
func fuzzBudget(n int) uint64 { return 64*uint64(n) + 1<<20 }

// addSeeds seeds the corpus with each file, its first half and a
// bit-flipped copy, and returns the intact files.
func addSeeds(f *testing.F, files ...[]byte) (intact [][]byte) {
	for _, raw := range files {
		intact = append(intact, raw)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		flipped := bytes.Clone(raw)
		flipped[len(flipped)/3] ^= 0x55
		f.Add(flipped)
	}
	return intact
}

// addGoldenSeeds is addSeeds over the named fixtures.
func addGoldenSeeds(f *testing.F, names ...string) (intact [][]byte) {
	for _, name := range names {
		intact = append(intact, addSeeds(f, readGolden(f, name))...)
	}
	return intact
}

// requireSeed fails unless raw, which a decoder just accepted without a
// resealed CRC, is one of the intact fixtures.
func requireSeed(t *testing.T, raw []byte, intact [][]byte) {
	t.Helper()
	for _, seed := range intact {
		if bytes.Equal(raw, seed) {
			return
		}
	}
	t.Fatalf("a %d-byte input that is no fixture was accepted with the CRC it came with", len(raw))
}

// bothSealings returns raw, then — when it differs — raw with a correct CRC.
func bothSealings(raw []byte) [][]byte {
	if fixed := reseal(raw); !bytes.Equal(fixed, raw) {
		return [][]byte{raw, fixed}
	}
	return [][]byte{raw}
}

// encodeFull returns ck's full encoding at DomainsPerAxis 2, or nil when ck
// cannot be written.
func encodeFull(ck *Checkpoint) []byte {
	raw, _, err := ck.encode(2)
	if err != nil {
		return nil // e.g. a non-positive cell: decodable, not writable
	}
	return raw
}

func FuzzDecodeCheckpoint(f *testing.F) {
	intact := addGoldenSeeds(f, goldenFullD1, goldenFullD2, goldenBare)
	intact = append(intact, addSeeds(f, encodeFull(withHistories(goldenCheckpoint())))...)
	f.Fuzz(func(t *testing.T, raw []byte) {
		for i, in := range bothSealings(raw) {
			var ck *Checkpoint
			var err error
			if got := allocatedBy(func() { ck, _, err = decodeCheckpoint(in) }); got > fuzzBudget(len(in)) {
				t.Fatalf("decoding %d bytes allocated %d", len(in), got)
			}
			if err != nil {
				continue
			}
			if i == 0 {
				requireSeed(t, in, intact)
			}
			again := encodeFull(ck)
			if again == nil {
				continue
			}
			ck2, _, err := decodeCheckpoint(again)
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			if !bytes.Equal(encodeFull(ck2), again) {
				t.Fatal("encode → decode → encode is not a fixed point")
			}
		}
	})
}

func FuzzDecodeCheckpointDelta(f *testing.F) {
	intact := addGoldenSeeds(f, goldenDeltaD1, goldenDeltaD2)
	// Every input is applied to the golden base and to a base carrying
	// histories, which the history seed's delta entries are bound to.
	var bases []*DeltaBase
	for _, raw := range [][]byte{readGolden(f, goldenFullD1), encodeFull(withHistories(goldenCheckpoint()))} {
		ck, crc, err := decodeCheckpoint(raw)
		if err != nil {
			f.Fatal(err)
		}
		bases = append(bases, &DeltaBase{Ck: ck, CRC: crc})
	}
	seed, err := encodeDelta(perturbedHistories(), bases[1])
	if err != nil {
		f.Fatal(err)
	}
	intact = append(intact, addSeeds(f, seed)...)
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, base := range bases {
			fuzzDelta(t, raw, base, intact)
		}
	})
}

// fuzzDelta is one FuzzDecodeCheckpointDelta input applied to one base.
func fuzzDelta(t *testing.T, raw []byte, base *DeltaBase, intact [][]byte) {
	for i, in := range bothSealings(raw) {
		var ck *Checkpoint
		var err error
		if got := allocatedBy(func() { ck, err = DecodeCheckpointDelta(in, base) }); got > fuzzBudget(len(in)) {
			t.Fatalf("decoding %d bytes allocated %d", len(in), got)
		}
		if err != nil {
			continue
		}
		if i == 0 {
			requireSeed(t, in, intact)
		}
		again, err := encodeDelta(ck, base)
		if err != nil {
			continue // e.g. a step behind the base: decodable, not writable
		}
		ck2, err := DecodeCheckpointDelta(again, base)
		if err != nil {
			t.Fatalf("re-encoded delta does not decode: %v", err)
		}
		if twice, err := encodeDelta(ck2, base); err != nil || !bytes.Equal(twice, again) {
			t.Fatalf("encode → decode → encode is not a fixed point (%v)", err)
		}
	}
}

func FuzzDecompressField(f *testing.F) {
	ck := goldenCheckpoint()
	field, err := CompressField(ck.Rho, ck.GridN)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(field, ck.GridN)
	f.Add(field[:len(field)/2], ck.GridN)
	f.Add([]byte{1, 2, 3}, 400)
	f.Add([]byte{0x80}, 2)
	f.Fuzz(func(t *testing.T, buf []byte, n int) {
		var data []float64
		var err error
		if got := allocatedBy(func() { data, err = DecompressField(buf, n) }); got > fuzzBudget(len(buf)) {
			t.Fatalf("decompressing %d bytes at n=%d allocated %d", len(buf), n, got)
		}
		if err != nil {
			return
		}
		again, err := CompressField(data, n)
		if err != nil {
			t.Fatalf("decompressed field does not compress: %v", err)
		}
		data2, err := DecompressField(again, n)
		if err != nil || len(data2) != len(data) {
			t.Fatalf("round trip: %d points, %v", len(data2), err)
		}
		for i := range data {
			if math.Float64bits(data[i]) != math.Float64bits(data2[i]) {
				t.Fatalf("point %d not bitwise equal after a round trip", i)
			}
		}
	})
}
