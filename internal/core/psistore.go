package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// psiStore persists per-domain wave-function coefficients between SCF
// iterations (and between the solve and force passes) while the domains'
// solver workspaces are recycled. Implementations must be safe for
// concurrent access with DISTINCT domain indices — the streaming
// scheduler never touches one domain from two workers at once.
//
// Both implementations round-trip the complex128 coefficients bit-
// exactly, so a spilled run reproduces an in-memory run bitwise.
type psiStore interface {
	// save records the coefficients of domain di (copying src).
	save(di int, src []complex128) error
	// load copies domain di's stored coefficients into dst, whose length
	// must equal the stored length.
	load(di int, dst []complex128) error
	// close releases all storage. The store is unusable afterwards.
	close() error
}

// newPsiStore picks the wave-function store for an engine of the given
// domain count: in-memory by default, or disk spill rooted at spillDir
// when set.
func newPsiStore(spillDir string, domains int) (psiStore, error) {
	if spillDir == "" {
		return make(memStore, domains), nil
	}
	return newDiskStore(spillDir)
}

// memStore keeps one coefficient slice per domain, indexed by domain.
// Saves and loads on distinct indices touch distinct entries, so it
// needs no lock; steady-state saves reuse the entry's slice.
type memStore [][]complex128

func (m memStore) save(di int, src []complex128) error {
	if len(m[di]) != len(src) {
		m[di] = make([]complex128, len(src))
	}
	copy(m[di], src)
	return nil
}

func (m memStore) load(di int, dst []complex128) error {
	src := m[di]
	if src == nil {
		return fmt.Errorf("core: no stored wave functions for domain %d", di)
	}
	if len(src) != len(dst) {
		return fmt.Errorf("core: domain %d stores %d coefficients, want %d", di, len(src), len(dst))
	}
	copy(dst, src)
	return nil
}

func (m memStore) close() error {
	clear(m)
	return nil
}

// diskStore spills each domain's coefficients to one little-endian
// binary file under a private temp directory, keeping resident memory
// strictly O(workers). float64 bit patterns are written verbatim, so the
// round trip is exact.
type diskStore struct {
	dir string
	buf sync.Pool // *[]byte encode/decode scratch
}

func newDiskStore(root string) (*diskStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("core: spill dir: %w", err)
	}
	dir, err := os.MkdirTemp(root, "ldcpsi-*")
	if err != nil {
		return nil, fmt.Errorf("core: spill dir: %w", err)
	}
	return &diskStore{dir: dir}, nil
}

func (d *diskStore) path(di int) string {
	return filepath.Join(d.dir, fmt.Sprintf("psi-%06d.bin", di))
}

func (d *diskStore) getBuf(n int) []byte {
	if p, ok := d.buf.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func (d *diskStore) putBuf(b []byte) {
	d.buf.Put(&b)
}

func (d *diskStore) save(di int, src []complex128) error {
	buf := d.getBuf(16 * len(src))
	defer d.putBuf(buf)
	for i, c := range src {
		binary.LittleEndian.PutUint64(buf[16*i:], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(buf[16*i+8:], math.Float64bits(imag(c)))
	}
	if err := os.WriteFile(d.path(di), buf, 0o644); err != nil {
		return fmt.Errorf("core: spill domain %d: %w", di, err)
	}
	return nil
}

func (d *diskStore) load(di int, dst []complex128) error {
	buf, err := os.ReadFile(d.path(di))
	if err != nil {
		return fmt.Errorf("core: load domain %d: %w", di, err)
	}
	if len(buf) != 16*len(dst) {
		return fmt.Errorf("core: domain %d spill holds %d bytes, want %d", di, len(buf), 16*len(dst))
	}
	for i := range dst {
		dst[i] = complex(
			math.Float64frombits(binary.LittleEndian.Uint64(buf[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(buf[16*i+8:])))
	}
	return nil
}

func (d *diskStore) close() error {
	return os.RemoveAll(d.dir)
}
