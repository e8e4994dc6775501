package qio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// reseal rewrites the CRC trailer of a copy of raw, so a deliberately
// damaged file gets past the envelope and reaches the section parsers.
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

// TestDecompressFieldBoundsEdgeByPayload: the grid edge comes from a file
// header, so it must be checked against the payload before it sizes the
// Hilbert order and the field. Before the bound, 3 bytes claiming n = 400
// cost 1.7 GiB and half a minute before "truncated field data".
func TestDecompressFieldBoundsEdgeByPayload(t *testing.T) {
	for _, n := range []int{400, 1 << 21, 1 << 31, 1 << 62, 0, -1} {
		var err error
		got := allocatedBy(func() { _, err = DecompressField([]byte{1, 2, 3}, n) })
		if err == nil {
			t.Fatalf("n=%d accepted for a 3-byte payload", n)
		}
		if got >= 1<<20 {
			t.Fatalf("n=%d: rejected after allocating %d bytes, want < 1 MiB", n, got)
		}
	}
	if _, err := DecompressFieldDelta([]byte{0}, nil, 1<<32); err == nil {
		t.Fatal("delta: n whose cube overflows to len(base) accepted")
	}
}

// TestDecodersBoundGridEdge rewrites the one-byte GridN varint of the
// golden fixtures from 4 to 127 (2 M points, 57 MB of work if believed),
// reseals the CRC, and expects a cheap rejection from both decoders.
func TestDecodersBoundGridEdge(t *testing.T) {
	base, _, err := decodeCheckpoint(readGolden(t, goldenFullD1))
	if err != nil {
		t.Fatal(err)
	}
	full := readGolden(t, goldenFullD1)
	// magic 8 | version 4 | header length 1 | flags 1 | 3 floats | step,
	// atoms, domains 1 each | GridN.
	const fullGridN = 8 + 4 + 1 + 1 + 24 + 3
	// magic 8 | version 4 | baseCRC 4 | header length 1 | flags | 2 floats
	// | step 1 | GridN.
	const deltaFlags, deltaGridN = 8 + 4 + 4 + 1, 8 + 4 + 4 + 1 + 1 + 16 + 1
	delta := readGolden(t, goldenDeltaD1)
	if full[fullGridN] != goldenGridN || delta[deltaGridN] != goldenGridN {
		t.Fatalf("GridN is not where the layout says: %d, %d", full[fullGridN], delta[deltaGridN])
	}
	full[fullGridN] = 127
	delta[deltaGridN] = 127
	delta[deltaFlags] |= ckFlagDensityFull
	dbase := &DeltaBase{Ck: base, CRC: binary.LittleEndian.Uint32(full[len(full)-4:])}
	for name, decode := range map[string]func() error{
		"checkpoint": func() error { _, _, err := decodeCheckpoint(reseal(full)); return err },
		"delta":      func() error { _, err := DecodeCheckpointDelta(reseal(delta), dbase); return err },
	} {
		var err error
		got := allocatedBy(func() { err = decode() })
		if err == nil || !strings.Contains(err.Error(), "field edge 127") {
			t.Fatalf("%s: %v, want the field-edge rejection", name, err)
		}
		if got >= 1<<20 {
			t.Fatalf("%s: rejected after allocating %d bytes, want < 1 MiB", name, got)
		}
	}
}

// failsOnceTempExists is a JSON value whose encoding fails, having checked
// that the failure lands between CreateAtomic and Commit.
type failsOnceTempExists struct {
	t   *testing.T
	dir string
}

func (v failsOnceTempExists) MarshalJSON() ([]byte, error) {
	if len(tempsIn(v.t, v.dir)) != 1 {
		v.t.Errorf("encoding ran with temps %v, want exactly one", tempsIn(v.t, v.dir))
	}
	return nil, errors.New("boom")
}

func tempsIn(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	filepath.WalkDir(dir, func(path string, _ os.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			out = append(out, path)
		}
		return nil
	})
	return out
}

// TestAtomicWriteFailures drives every way a commit can fail through the
// primitive and through the writers built on it. Each row must return an
// error, leave what was at the target before (a decodable previous file,
// or the directory squatting on the name) untouched, and leave no temp.
func TestAtomicWriteFailures(t *testing.T) {
	good := testCheckpoint(t)
	errBoom := errors.New("boom")
	writeHalves := func(path string, fail bool) error {
		return WriteAtomic(path, func(w io.Writer) error {
			if _, err := w.Write([]byte("half of the new ")); err != nil || fail {
				return errors.Join(err, errBoom)
			}
			_, err := w.Write([]byte("content"))
			return err
		})
	}
	hasContent := func(path string) error {
		if raw, err := os.ReadFile(path); err != nil || string(raw) != "half of the new content" {
			return errors.Join(err, errors.New("previous content gone: "+string(raw)))
		}
		return nil
	}
	writers := []struct {
		name  string
		write func(path string) error // a write that succeeds where it can
		fail  func(path string) error // a write that goes wrong once its temp exists (nil: none can)
		check func(path string) error // the previous file is intact
	}{
		{"WriteAtomic",
			func(path string) error { return writeHalves(path, false) },
			func(path string) error { return writeHalves(path, true) },
			hasContent},
		{"WriteFileAtomic",
			func(path string) error {
				_, err := WriteFileAtomic(path, strings.NewReader("half of the new content"))
				return err
			},
			func(path string) error {
				_, err := WriteFileAtomic(path, io.MultiReader(strings.NewReader("half of the new "), iotest.ErrReader(errBoom)))
				return err
			},
			hasContent},
		{"WriteCheckpoint",
			func(path string) error {
				_, err := WriteCheckpoint(path, good, CheckpointWriteOptions{DomainsPerAxis: 2})
				return err
			},
			nil, // its bytes reach the disk through WriteFileAtomic
			func(path string) error {
				ck, err := ReadCheckpoint(path)
				if err == nil && ck.Step != good.Step {
					err = errors.New("previous checkpoint replaced")
				}
				return err
			}},
		{"WriteJSONFile",
			func(path string) error { return WriteJSONFile(path, map[string]int{"v": 1}) },
			func(path string) error { return WriteJSONFile(path, failsOnceTempExists{t, filepath.Dir(path)}) },
			func(path string) error {
				var got map[string]int
				if err := ReadJSONFile(path, &got); err != nil || got["v"] != 1 {
					return errors.Join(err, errors.New("previous JSON gone"))
				}
				return nil
			}},
	}
	for _, w := range writers {
		if w.fail != nil {
			t.Run(w.name+"/write fails midway", func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "target")
				if err := w.write(path); err != nil {
					t.Fatal(err)
				}
				if err := w.fail(path); err == nil {
					t.Fatal("failing write reported success")
				}
				if err := w.check(path); err != nil {
					t.Fatal(err)
				}
				if left := tempsIn(t, dir); left != nil {
					t.Fatalf("temp files left: %v", left)
				}
			})
		}
		t.Run(w.name+"/parent directory missing", func(t *testing.T) {
			dir := t.TempDir()
			if err := w.write(filepath.Join(dir, "absent", "target")); err == nil {
				t.Fatal("write into a missing directory reported success")
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Fatalf("something was created: %v", ents)
			}
		})
		t.Run(w.name+"/target is a non-empty directory", func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "target")
			keep := filepath.Join(path, "keep")
			if err := os.Mkdir(path, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := w.write(keep); err != nil {
				t.Fatal(err)
			}
			if err := w.write(path); err == nil {
				t.Fatal("rename over a non-empty directory reported success")
			}
			if err := w.check(keep); err != nil {
				t.Fatal(err)
			}
			if left := tempsIn(t, dir); left != nil {
				t.Fatalf("temp files left: %v", left)
			}
		})
	}
}

// TestAtomicFileStates pins the AtomicFile contract the writers lean on:
// Abort is a no-op after Commit, Commit and Stage fail after Abort, a
// second Commit fails, and a staged file refuses further writes.
func TestAtomicFileStates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	content := func() string { raw, _ := os.ReadFile(path); return string(raw) }

	a, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	a.Write([]byte("never visible"))
	a.Abort()
	if err := a.Commit(); err == nil {
		t.Fatal("Commit after Abort succeeded")
	}
	if err := a.Stage(); err == nil {
		t.Fatal("Stage after Abort succeeded")
	}
	if content() != "old" || tempsIn(t, dir) != nil {
		t.Fatalf("after abort: content %q, temps %v", content(), tempsIn(t, dir))
	}

	a, err = CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	a.Write([]byte("new"))
	if err := a.Stage(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("late")); err == nil {
		t.Fatal("write after Stage succeeded")
	}
	if content() != "old" {
		t.Fatalf("staged file already visible: %q", content())
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	a.Abort() // must not remove the published file
	if err := a.Commit(); err == nil {
		t.Fatal("second Commit succeeded")
	}
	if content() != "new" || tempsIn(t, dir) != nil {
		t.Fatalf("after commit: content %q, temps %v", content(), tempsIn(t, dir))
	}
	// The published file has the mode os.Create would have given it: 0666
	// less the umask, whatever that is here.
	plain := filepath.Join(dir, "plain")
	if f, err := os.Create(plain); err != nil {
		t.Fatal(err)
	} else {
		f.Close()
	}
	got, err1 := os.Stat(path)
	want, err2 := os.Stat(plain)
	if err1 != nil || err2 != nil || got.Mode() != want.Mode() {
		t.Fatalf("published mode %v, os.Create gives %v (%v, %v)", got.Mode(), want.Mode(), err1, err2)
	}
}

// TestRemoveTemps: a process killed between CreateAtomic and Commit leaves
// its temp; the directory's owner clears those and nothing else.
func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteJSONFile(path, 1); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		a, err := CreateAtomic(path) // never committed nor aborted: the kill
		if err != nil {
			t.Fatal(err)
		}
		a.Write([]byte("orphan"))
		a.f.Close()
	}
	if len(tempsIn(t, dir)) != 2 {
		t.Fatalf("two writers of one path shared a temp: %v", tempsIn(t, dir))
	}
	RemoveTemps(dir)
	RemoveTemps(filepath.Join(dir, "absent")) // nothing to do, nothing to report
	if ents, _ := os.ReadDir(dir); len(ents) != 1 || ents[0].Name() != "state.json" {
		t.Fatalf("after RemoveTemps: %v", ents)
	}
}
