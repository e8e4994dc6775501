package qio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ldcdft/internal/geom"
)

// The one place that knows what the envelope of a binary file is and how
// a file becomes visible (DESIGN.md "Files on disk"). Checkpoints, delta
// checkpoints and warm-start cache entries share the envelope
//
//	magic | version uint32 | … | crc32
//
// and the wire primitives between its ends; every durable artifact —
// binary or JSON — is published through AtomicFile.

// Format names one layout inside that envelope.
type Format struct {
	Magic   string // opens every file of the format
	Version uint32 // written by Begin; Open accepts 1..Version
	Name    string // error prefix, e.g. "qio: checkpoint"
}

// Encoder appends wire primitives to a buffer. Integers are uvarints,
// floats little-endian IEEE-754 bit patterns.
type Encoder struct{ buf []byte }

// Begin starts a file of format f: its magic and version.
func (f Format) Begin() *Encoder {
	e := &Encoder{buf: []byte(f.Magic)}
	e.U32(f.Version)
	return e
}

func (e *Encoder) Len() int         { return len(e.buf) }
func (e *Encoder) Reset()           { e.buf = e.buf[:0] }
func (e *Encoder) Grow(n int)       { e.buf = slices.Grow(e.buf, n) }
func (e *Encoder) U32(v uint32)     { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *Encoder) Byte(b byte)      { e.buf = append(e.buf, b) }
func (e *Encoder) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *Encoder) Vec3(v geom.Vec3) { e.F64(v.X); e.F64(v.Y); e.F64(v.Z) }

// Bytes appends b behind its uvarint length: a string, or a section
// whose body was produced elsewhere.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Section appends everything written to body as one length-prefixed section.
func (e *Encoder) Section(body *Encoder) { e.Bytes(body.buf) }

// Floats appends a counted float series.
func (e *Encoder) Floats(v []float64) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Strings appends a counted table of length-prefixed strings.
func (e *Encoder) Strings(s []string) {
	e.Uvarint(uint64(len(s)))
	for _, x := range s {
		e.Uvarint(uint64(len(x)))
		e.buf = append(e.buf, x...)
	}
}

// Seal closes the envelope with the CRC-32 (IEEE) of every preceding
// byte and returns the file along with that CRC — the identity a delta
// checkpoint binds to.
func (e *Encoder) Seal() ([]byte, uint32) {
	crc := crc32.ChecksumIEEE(e.buf)
	e.U32(crc)
	return e.buf, crc
}

// Decoder reads wire primitives. Its first failure sticks (the
// bufio.Scanner pattern): every primitive bound-checks against the bytes
// that remain, returns zero once anything has failed, and section
// decoders share their parent's failure — so a parser checks Err where a
// decoded value is about to size an allocation, bounds its loops with it,
// and returns Done at the end instead of testing every field.
type Decoder struct {
	buf []byte
	st  *decodeState
}

type decodeState struct {
	name string
	err  error
}

// Open verifies the envelope of raw — minimum length, magic, version in
// [1, f.Version], CRC — before a single field is interpreted, and returns
// a decoder over the bytes between the version word and the trailer, plus
// the trailer itself.
func (f Format) Open(raw []byte) (Decoder, uint32, error) {
	m := len(f.Magic)
	if len(raw) < m+8 {
		return Decoder{}, 0, fmt.Errorf("%s: file too short (%d bytes)", f.Name, len(raw))
	}
	if string(raw[:m]) != f.Magic {
		return Decoder{}, 0, fmt.Errorf("%s: bad magic (not this kind of file)", f.Name)
	}
	if v := binary.LittleEndian.Uint32(raw[m:]); v == 0 || v > f.Version {
		return Decoder{}, 0, fmt.Errorf("%s: unsupported format version %d (this build reads 1..%d)", f.Name, v, f.Version)
	}
	body, crc := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return Decoder{}, 0, fmt.Errorf("%s: CRC mismatch (truncated or corrupted file)", f.Name)
	}
	return Decoder{buf: body[m+4:], st: &decodeState{name: f.Name}}, crc, nil
}

// Err returns the first failure of this decoder or any decoder it shares
// a file with.
func (d *Decoder) Err() error { return d.st.err }

// Failf records a failure found by the caller (a range or consistency
// check), unless one is already recorded.
func (d *Decoder) Failf(format string, args ...any) {
	if d.st.err == nil {
		d.st.err = fmt.Errorf(d.st.name+": "+format, args...)
	}
}

// Done returns the first failure, or reports bytes left unread in what.
func (d *Decoder) Done(what string) error {
	if len(d.buf) != 0 {
		d.Failf("%d trailing bytes in %s", len(d.buf), what)
	}
	return d.st.err
}

// take consumes n bytes, or fails and returns nil.
func (d *Decoder) take(n uint64, what string) []byte {
	if d.st.err == nil && n > uint64(len(d.buf)) {
		d.Failf("truncated %s (%d bytes needed, %d remain)", what, n, len(d.buf))
	}
	if d.st.err != nil {
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// fixed consumes a fixed-width field of n ≤ 8 bytes; after a failure it
// yields zero bytes, which is what makes U32, Byte and F64 return zero.
func (d *Decoder) fixed(n int, what string) []byte {
	if b := d.take(uint64(n), what); b != nil {
		return b
	}
	return make([]byte, n, 8)
}

func (d *Decoder) U32() uint32 { return binary.LittleEndian.Uint32(d.fixed(4, "uint32")) }
func (d *Decoder) Byte() byte  { return d.fixed(1, "byte")[0] }
func (d *Decoder) F64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.fixed(8, "float")))
}

func (d *Decoder) Uvarint() uint64 {
	if d.st.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.buf)
	if k <= 0 {
		d.Failf("truncated varint")
		return 0
	}
	d.buf = d.buf[k:]
	return v
}

func (d *Decoder) Vec3() geom.Vec3 { return geom.Vec3{X: d.F64(), Y: d.F64(), Z: d.F64()} }

// Count reads an element count and rejects one whose elements (at least
// min bytes each) cannot fit in the bytes that remain — before the count
// sizes an allocation or a loop.
func (d *Decoder) Count(min int, what string) int {
	v := d.Uvarint()
	if v > uint64(len(d.buf)/min) {
		d.Failf("%s count %d exceeds file size", what, v)
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed run, aliasing the file's memory.
func (d *Decoder) Bytes(what string) []byte { return d.take(d.Uvarint(), what) }

// Section reads one length-prefixed section as a decoder of its own.
func (d *Decoder) Section(what string) Decoder {
	return Decoder{buf: d.Bytes(what), st: d.st}
}

// AppendFloats reads a counted float series onto dst.
func (d *Decoder) AppendFloats(dst []float64, what string) []float64 {
	n := d.Count(8, what)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, d.F64())
	}
	return dst
}

// Strings reads a counted table of length-prefixed strings.
func (d *Decoder) Strings(what string) []string {
	n := d.Count(1, what)
	var out []string
	for i := 0; i < n && d.st.err == nil; i++ {
		out = append(out, string(d.Bytes(what)))
	}
	return out
}

// AtomicFile publishes a file all at once: bytes go to a uniquely named
// sibling temp, Stage makes them durable (the commit's one fsync, then
// close), Commit renames the temp over the target and fsyncs the
// directory (best effort — not every platform can sync one), so readers
// and post-crash recovery see the old file or the new one, never a torn
// one. Stage and Commit are separate because a caller may have to
// re-check something under a lock between the slow part and the visible
// part (serve.Manager.PutLeaseCheckpoint). A failed Stage or Commit
// aborts; Abort removes the temp and is a no-op after Commit, so
// `defer a.Abort()` is the whole cleanup.
type AtomicFile struct {
	path   string
	f      *os.File
	staged bool
	done   bool // committed or aborted
}

// CreateAtomic opens the temp that Commit will publish as path: a sibling
// no other writer of path shares, created — like os.Create would have
// created path — with mode 0666 less the umask.
func CreateAtomic(path string) (*AtomicFile, error) {
	for {
		tmp := fmt.Sprintf("%s.%08x.tmp", path, rand.Uint32())
		f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if err == nil {
			return &AtomicFile{path: path, f: f}, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return nil, err
		}
	}
}

// RemoveTemps deletes what a process killed between CreateAtomic and
// Commit left in dir. It is for the directory's owner, before it writes
// (cache.Open, serve.Manager's recovery): a live writer's temp would go too.
func RemoveTemps(dir string) {
	temps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, tmp := range temps {
		os.Remove(tmp)
	}
}

// RemoveTempsOf deletes the temps of path alone ("<path>.%08x.tmp", the
// CreateAtomic name), for a writer that owns path but not its directory (a
// checkpoint path from a command line). Glob metacharacters disable it.
func RemoveTempsOf(path string) {
	if strings.ContainsAny(path, `*?[\`) {
		return
	}
	temps, _ := filepath.Glob(path + ".????????.tmp")
	for _, tmp := range temps {
		os.Remove(tmp)
	}
}

func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Stage fsyncs and closes the temp; further writes fail.
func (a *AtomicFile) Stage() error {
	if a.done {
		return fmt.Errorf("%s was already committed or aborted", a.path)
	}
	if a.staged {
		return nil
	}
	a.staged = true
	if err := errors.Join(a.f.Sync(), a.f.Close()); err != nil {
		a.Abort()
		return err
	}
	return nil
}

// Commit stages if Stage has not run, then makes the file visible.
func (a *AtomicFile) Commit() error {
	if err := a.Stage(); err != nil {
		return err
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		a.Abort()
		return err
	}
	a.done = true
	if dir, err := os.Open(filepath.Dir(a.path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// Abort discards the temp unless Commit already published it.
func (a *AtomicFile) Abort() {
	if !a.done {
		a.done = true
		a.f.Close()
		os.Remove(a.f.Name())
	}
}

// WriteAtomic publishes whatever write produces as path, or leaves path
// untouched and no temp behind.
func WriteAtomic(path string, write func(io.Writer) error) error {
	a, err := CreateAtomic(path)
	if err == nil {
		defer a.Abort()
		if err = write(a); err == nil {
			err = a.Commit()
		}
	}
	if err != nil {
		return fmt.Errorf("qio: write %s: %w", path, err)
	}
	return nil
}
