package qio

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// historyEdge is the local grid edge of the history constructors below.
const historyEdge = 3

// withHistories returns ck carrying deterministic ρα histories: 8
// domains of historyEdge³ points, with domains 2 and 5 vacuum (nil).
func withHistories(ck *Checkpoint) *Checkpoint {
	ck.HistN = historyEdge
	ck.Hist = make([][]float64, 8)
	for d := range ck.Hist {
		if d == 2 || d == 5 {
			continue
		}
		h := make([]float64, historyEdge*historyEdge*historyEdge)
		for i := range h {
			h[i] = math.Float64frombits(uint64(goldenBits) + uint64((d*27+i)*53%97))
		}
		ck.Hist[d] = h
	}
	return ck
}

// perturbedHistories is goldenPerturbed with withHistories' histories two
// steps later: a few points of each domain changed, domain 2 no longer
// vacuum (stored full in a delta) and domain 6 vacuum now.
func perturbedHistories() *Checkpoint {
	ck := withHistories(goldenPerturbed())
	for d, h := range ck.Hist {
		for _, i := range []int{d % 27, 13} {
			if h != nil {
				h[i] = math.Float64frombits(math.Float64bits(h[i]) + uint64(d+1))
			}
		}
	}
	ck.Hist[2] = append([]float64(nil), ck.Hist[3]...)
	ck.Hist[6] = nil
	return ck
}

// A checkpoint carrying histories round-trips them bit for bit through
// every domain partition, behind header flag 1<<3; without them the flag
// stays clear (the golden tests pin those bytes).
func TestCheckpointHistoriesRoundTrip(t *testing.T) {
	for _, nd := range []int{1, 2} {
		ck := withHistories(goldenCheckpoint())
		raw, _, err := ck.encode(nd)
		if err != nil {
			t.Fatal(err)
		}
		if flags := raw[8+4+1]; flags != ckFlagForces|ckFlagDensity|ckFlagHistory {
			t.Fatalf("d%d: header flags %#x", nd, flags)
		}
		got, _, err := decodeCheckpoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		checkpointsEqual(t, ck, got)
	}

	bad := withHistories(goldenCheckpoint())
	bad.Hist[0] = bad.Hist[0][:5]
	if _, _, err := bad.encode(1); err == nil || !strings.Contains(err.Error(), "history length") {
		t.Fatalf("a history off the edge: %v", err)
	}
	bad = withHistories(goldenCheckpoint())
	bad.HistN = 0
	if _, _, err := bad.encode(1); err == nil {
		t.Fatal("histories with edge 0 accepted")
	}
}

// A delta stores each history against the base's history of that domain
// when the base has one of the same shape, and full otherwise; either way
// it applies back to the exact histories.
func TestDeltaHistories(t *testing.T) {
	fullBase := func(ck *Checkpoint) *DeltaBase {
		raw, crc, err := ck.encode(2)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := decodeCheckpoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		return &DeltaBase{Ck: got, CRC: crc}
	}
	next := perturbedHistories()
	sizes := map[string]int{}
	for name, base := range map[string]*DeltaBase{
		"against histories": fullBase(withHistories(goldenCheckpoint())),
		"against none":      fullBase(goldenCheckpoint()),
	} {
		raw, err := encodeDelta(next, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeCheckpointDelta(raw, base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameCheckpoint(t, got, next)
		sizes[name] = len(raw)
	}
	if sizes["against histories"] >= sizes["against none"] {
		t.Fatalf("delta against the base's histories is %d B, against none %d B: no entry was stored as a delta",
			sizes["against histories"], sizes["against none"])
	}

	// A delta without histories carries none, whatever the base holds.
	plain := goldenPerturbed()
	base := fullBase(withHistories(goldenCheckpoint()))
	raw, err := encodeDelta(plain, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpointDelta(raw, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hist != nil || got.HistN != 0 {
		t.Fatalf("delta without histories decoded %d of edge %d", len(got.Hist), got.HistN)
	}

	// A delta entry is meaningless against a base without that history
	// (same CRC binding, so only the history check can refuse it).
	raw, err = encodeDelta(next, base)
	if err != nil {
		t.Fatal(err)
	}
	bare := &DeltaBase{Ck: goldenCheckpoint(), CRC: base.CRC}
	if _, err := DecodeCheckpointDelta(raw, bare); err == nil || !strings.Contains(err.Error(), "no base history") {
		t.Fatalf("history delta against a base without histories: %v", err)
	}
}

// Both decoders refuse a header flag bit they do not know instead of
// decoding the file as if it were absent. The full format does not know
// the delta's density-stored-full bit either.
func TestDecodersRejectUnknownFlags(t *testing.T) {
	baseRaw := readGolden(t, goldenFullD1)
	base, crc, err := decodeCheckpoint(baseRaw)
	if err != nil {
		t.Fatal(err)
	}
	dbase := &DeltaBase{Ck: base, CRC: crc}
	// magic 8 | version 4 | header length 1 | flags (full); the delta has
	// its 4-byte base CRC before the header.
	const fullFlags, deltaFlags = 8 + 4 + 1, 8 + 4 + 4 + 1
	for _, bit := range []byte{ckFlagDensityFull, 1 << 4, 1 << 6} {
		full := bytes.Clone(baseRaw)
		full[fullFlags] |= bit
		if _, _, err := decodeCheckpoint(reseal(full)); err == nil || !strings.Contains(err.Error(), "unknown header flags") {
			t.Fatalf("checkpoint flag %#x: %v", bit, err)
		}
		if bit == ckFlagDensityFull {
			continue
		}
		delta := readGolden(t, goldenDeltaD1)
		delta[deltaFlags] |= bit
		if _, err := DecodeCheckpointDelta(reseal(delta), dbase); err == nil || !strings.Contains(err.Error(), "unknown header flags") {
			t.Fatalf("delta flag %#x: %v", bit, err)
		}
	}
}
