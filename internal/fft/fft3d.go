package fft

import (
	"sync"

	"ldcdft/internal/par"
	"ldcdft/internal/perf"
)

// ph3D aggregates every 3-D transform; applies run concurrently from the
// band-parallel Hamiltonian workers, so the total is CPU-seconds across
// workers rather than wall-clock.
var ph3D = perf.GetPhase("fft/3d")

// tileB is the most lines one tile holds. The engine's inner loop runs
// over the lines of a tile, so a tile is a unit of butterfly work as well
// as of gather/scatter; tileB lines × the line length, twice (the two
// sides of the Stockham ping-pong), stay inside L1: 2 × 16 lines × 12
// points × 16 B = 6 KiB at 12³, 16 KiB at 32³.
const tileB = 16

// Plan3 performs 3-D complex transforms on an Nx×Ny×Nz array stored in
// row-major order with z fastest: index = (ix*Ny + iy)*Nz + iz. All plan
// state is read-only after NewPlan3 and per-call scratch comes from a
// pool of reusable arenas, so one Plan3 (e.g. the shared instance from
// Cached3) serves any number of concurrent transforms. Line transforms
// are tiled and each pass is spread over the process-wide internal/par
// pool, mirroring the threaded Spiral FFT of §4.2.
type Plan3 struct {
	Nx, Ny, Nz int
	px, py, pz *Plan
	full       Support3  // every line of every pass: the dense transform
	arenas     sync.Pool // *arena3
}

// arena3 is one chunk's reusable scratch: a tile of up to tileB lines in
// [element][line] layout — element j of line t at tile[j*w+t], which is a
// row of w adjacent grid offsets per element in the y- and x-passes — and
// the line plans' scratch for a tile that wide (the engine's other
// ping-pong half; Bluestein's padded buffers).
type arena3 struct {
	tile []complex128 // tileB × max(Nx, Ny, Nz)
	work []complex128 // tileB × the largest scratchLen of the three axes
}

// NewPlan3 prepares a 3-D transform of the given shape. Most callers
// should prefer Cached3, which shares one plan per shape process-wide.
func NewPlan3(nx, ny, nz int) *Plan3 {
	p := &Plan3{Nx: nx, Ny: ny, Nz: nz}
	p.pz = NewPlan(nz)
	if ny == nz {
		p.py = p.pz
	} else {
		p.py = NewPlan(ny)
	}
	switch {
	case nx == nz:
		p.px = p.pz
	case nx == ny:
		p.px = p.py
	default:
		p.px = NewPlan(nx)
	}
	all := p.newSchedule(filled(nx*ny), filled(nx), filled(nz), filled(ny*nz))
	p.full = Support3{p: p, inv: all, fwd: all}
	tileLen := tileB * max(nx, ny, nz)
	workLen := tileB * max(p.px.scratchLen(), p.py.scratchLen(), p.pz.scratchLen())
	p.arenas.New = func() any {
		return &arena3{
			tile: make([]complex128, tileLen),
			work: make([]complex128, workLen),
		}
	}
	return p
}

// Size returns the total number of grid points.
func (p *Plan3) Size() int { return p.Nx * p.Ny * p.Nz }

// Flops returns the modelled operation count (5 n log2 n per line) of one
// full 3-D transform.
func (p *Plan3) Flops() int64 { return p.full.fwd.flops }

// Forward computes the in-place 3-D forward DFT.
func (p *Plan3) Forward(x []complex128) { p.full.Forward(x) }

// Inverse computes the in-place 3-D inverse DFT including the 1/(NxNyNz)
// normalization.
func (p *Plan3) Inverse(x []complex128) { p.full.Inverse(x) }

// ForwardBatch computes the forward DFT of nb independent grids packed
// contiguously in x (grid g occupies x[g*Size():(g+1)*Size()]). Grids are
// spread over the internal/par pool, one grid per chunk, and each is
// transformed serially in one arena — per-grid instead of per-line
// fan-out, allocation-free in the steady state.
func (p *Plan3) ForwardBatch(x []complex128, nb int) { p.full.ForwardBatch(x, nb) }

// InverseBatch is ForwardBatch's inverse, including the 1/(NxNyNz)
// normalization of each grid.
func (p *Plan3) InverseBatch(x []complex128, nb int) { p.full.InverseBatch(x, nb) }

// InverseRawMulReal computes the UNNORMALIZED in-place 3-D inverse DFT
// multiplied pointwise by the real field vr (len Size). In the
// plane-wave convention ψ̃(r) = N³·Inverse, the raw inverse is exactly
// ψ̃, so this one call replaces Inverse + ×N³ rescale + ×V_loc — three
// grid traversals fused into the transform's own passes.
func (p *Plan3) InverseRawMulReal(x []complex128, vr []float64) { p.full.InverseRawMulReal(x, vr) }

// InverseRawMulRealBatch applies InverseRawMulReal to nb packed grids,
// each multiplied by the same real field vr.
func (p *Plan3) InverseRawMulRealBatch(x []complex128, nb int, vr []float64) {
	p.full.InverseRawMulRealBatch(x, nb, vr)
}

// rev maps element j of an n-point result to the tile row that holds it:
// the engine only transforms forward, and the raw inverse is the forward
// transform read at (n−j) mod n, so every pass reverses while it writes
// its tile back.
func rev(j, n int, inverse bool) int {
	if inverse && j > 0 {
		return n - j
	}
	return j
}

// zLines transforms the contiguous z-lines s.zLines[lo:hi], up to tileB
// at a time through a transposed tile.
func (p *Plan3) zLines(x []complex128, s *schedule, inverse bool, lo, hi int, a *arena3) {
	nz := p.Nz
	for lo < hi {
		lines := s.zLines[lo:min(lo+tileB, hi)]
		w := len(lines)
		lo += w
		tile := a.tile[:w*nz]
		for t, l := range lines {
			for j, v := range x[l*nz : (l+1)*nz] {
				tile[j*w+t] = v
			}
		}
		p.pz.forwardS(tile, a.work, w)
		for j := 0; j < nz; j++ {
			r := rev(j, nz, inverse)
			for t, v := range tile[r*w : (r+1)*w] {
				x[lines[t]*nz+j] = v
			}
		}
	}
}

// yTiles transforms y-lines (stride Nz) for tile units [lo, hi). Unit u
// covers plane s.planes[u/nblk], iz block s.yBlocks[u%nblk]: a row of up
// to tileB adjacent z-columns is already [element][line], so the gather
// is one copy per row, and so is the write-back. Only the plane's
// s.yRows are read; the other rows enter the transform as zeros, so a
// pruned inverse never looks at grid points outside the sticks.
func (p *Plan3) yTiles(x []complex128, s *schedule, inverse bool, lo, hi int, a *arena3) {
	ny, nz := p.Ny, p.Nz
	nblk := len(s.yBlocks)
	for u := lo; u < hi; u++ {
		k := u / nblk
		b := s.yBlocks[u%nblk]
		w := b.w
		base := s.planes[k]*ny*nz + b.off
		rows := s.yRows[k]
		if w == nz && len(rows) == ny {
			// The plane already is the tile: transform it where it lies,
			// and reverse its rows in place.
			plane := x[base : base+ny*nz]
			p.py.forwardS(plane, a.work, nz)
			for i, j := 1, ny-1; inverse && i < j; i, j = i+1, j-1 {
				ri, rj := plane[i*nz:(i+1)*nz], plane[j*nz:(j+1)*nz]
				for t, v := range ri {
					ri[t], rj[t] = rj[t], v
				}
			}
			continue
		}
		tile := a.tile[:w*ny]
		if len(rows) < ny {
			clear(tile)
		}
		for _, iy := range rows {
			copy(tile[iy*w:(iy+1)*w], x[base+iy*nz:])
		}
		p.py.forwardS(tile, a.work, w)
		for iy := 0; iy < ny; iy++ {
			r := rev(iy, ny, inverse)
			copy(x[base+iy*nz:], tile[r*w:(r+1)*w])
		}
	}
}

// xTiles transforms x-lines (stride Ny*Nz) for tile units [lo, hi). Unit
// u covers the yz-plane offsets of block s.xBlocks[u]. Only the planes
// s.planes are read; the others enter the transform as zeros. The
// write-back multiplies each point by the real field vr when it is
// non-nil — the fused ×V_loc of the real-space Hamiltonian application —
// and otherwise by norm, the whole 3-D inverse's normalization, when that
// is not 0: either way the multiply costs no grid traversal of its own.
func (p *Plan3) xTiles(x []complex128, s *schedule, inverse bool, lo, hi int, a *arena3, vr []float64, norm float64) {
	nx := p.Nx
	plane := p.Ny * p.Nz
	for _, b := range s.xBlocks[lo:hi] {
		l0, w := b.off, b.w
		tile := a.tile[:w*nx]
		if len(s.planes) < nx {
			clear(tile)
		}
		for _, ix := range s.planes {
			copy(tile[ix*w:(ix+1)*w], x[ix*plane+l0:])
		}
		p.px.forwardS(tile, a.work, w)
		for ix := 0; ix < nx; ix++ {
			r := rev(ix, nx, inverse)
			row := tile[r*w : (r+1)*w]
			dst := x[ix*plane+l0 : ix*plane+l0+w]
			switch {
			case vr != nil:
				vs := vr[ix*plane+l0 : ix*plane+l0+w]
				for t, v := range row {
					dst[t] = scale(v, vs[t])
				}
			case norm != 0:
				for t, v := range row {
					dst[t] = scale(v, norm)
				}
			default:
				copy(dst, row)
			}
		}
	}
}

func (p *Plan3) getArena() *arena3  { return p.arenas.Get().(*arena3) }
func (p *Plan3) putArena(a *arena3) { p.arenas.Put(a) }

// fftJob is one pass of a transform, run over its units by par.For
// through a pooled job's bound run, so a pass allocates nothing. Complex
// passes set p; the real-transform passes (jobRZ, jobRGrids) set rp and
// carry the real side of the data in rx.
type fftJob struct {
	p       *Plan3
	s       *schedule // the lines p's passes run (complex passes only)
	rp      *RPlan3
	x       []complex128
	rx      []float64 // real data (jobRZ/jobRGrids) or, when non-nil, the fused real multiplier (jobX/jobGrids)
	norm    float64   // when not 0, the factor the x-pass write-back multiplies in (jobX/jobGrids)
	kind    int8
	inverse bool
	body    func(lo, hi int) // the job's own run, bound once
}

const (
	jobZ int8 = iota
	jobY
	jobX
	jobGrids
	jobRZ     // r2c/c2r z-lines between rx and the packed half grid x
	jobRGrids // whole real↔half-spectrum grids of a batch
)

var jobs = sync.Pool{New: func() any {
	j := new(fftJob)
	j.body = j.run
	return j
}}

// runUnits runs units [0, n) of the pass proto describes. A chunk is four
// tiles of lines, worth waking a helper for, or one grid of a batch.
func runUnits(proto fftJob, n int) {
	grain := 4
	switch proto.kind {
	case jobZ, jobRZ:
		grain = 4 * tileB
	case jobGrids, jobRGrids:
		grain = 1
	}
	j := jobs.Get().(*fftJob)
	proto.body = j.body
	*j = proto
	par.For(n, grain, j.body)
	*j = fftJob{body: j.body}
	jobs.Put(j)
}

func (j *fftJob) run(lo, hi int) {
	switch j.kind {
	case jobRZ:
		s := j.rp.getScratch()
		if j.inverse {
			j.rp.c2rLines(j.x, j.rx, lo, hi, *s)
		} else {
			j.rp.r2cLines(j.rx, j.x, lo, hi, *s)
		}
		j.rp.putScratch(s)
		return
	case jobRGrids:
		s := j.rp.getScratch()
		a := j.rp.half.getArena()
		rsize, hsize := j.rp.Size(), j.rp.HSize()
		for g := lo; g < hi; g++ {
			j.rp.applySerial(j.rx[g*rsize:(g+1)*rsize], j.x[g*hsize:(g+1)*hsize], j.inverse, *s, a)
		}
		j.rp.half.putArena(a)
		j.rp.putScratch(s)
		return
	}
	a := j.p.getArena()
	switch j.kind {
	case jobZ:
		j.p.zLines(j.x, j.s, j.inverse, lo, hi, a)
	case jobY:
		j.p.yTiles(j.x, j.s, j.inverse, lo, hi, a)
	case jobX:
		j.p.xTiles(j.x, j.s, j.inverse, lo, hi, a, j.rx, j.norm)
	case jobGrids:
		size := j.p.Size()
		for g := lo; g < hi; g++ {
			j.p.applySerial(j.x[g*size:(g+1)*size], j.s, j.inverse, a, j.rx, j.norm)
		}
	}
	j.p.putArena(a)
}
