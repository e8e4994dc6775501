package fft

import (
	"fmt"
	"sync"

	"ldcdft/internal/perf"
)

// ph3DReal aggregates the real-to-complex 3-D transforms separately from
// the complex ph3D bucket, so the -perf report attributes the halved
// operation count of the real paths (density, potentials, forces)
// honestly instead of folding it into the complex total.
var ph3DReal = perf.GetPhase("fft/3d-real")

// RPlan3 performs 3-D transforms of real fields on an Nx×Ny×Nz grid
// stored row-major with z fastest. The Hermitian symmetry of a real
// field's spectrum is exploited along z: the forward transform is
// real-to-complex along z into packed Nzh = Nz/2+1 storage, followed by
// complex transforms along y and x on the Nx×Ny×Nzh half grid — about
// half the arithmetic and memory traffic of the full complex Plan3. The
// half grid stores X[ix,iy,iz] for iz = 0..Nz/2; the missing
// coefficients are conj(X[−ix mod Nx, −iy mod Ny, Nz−iz]).
//
// All plan state is read-only after NewRPlan3; per-call scratch comes
// from pooled arenas (the y/x passes reuse the shared half-grid Plan3's
// arenas, tiled strided passes, and the process-wide internal/par
// pool), so one RPlan3 — e.g. the shared instance from CachedR3 —
// serves any number of concurrent transforms with zero steady-state
// allocations.
type RPlan3 struct {
	Nx, Ny, Nz int
	Nzh        int    // Nz/2+1: packed half-spectrum z-extent
	rz         *RPlan // r2c/c2r line transforms along z
	half       *Plan3 // complex y/x passes on the Nx×Ny×Nzh half grid
	flops      int64  // modelled operation count of one real 3-D transform
	scratch    sync.Pool
}

// NewRPlan3 prepares a real 3-D transform of the given shape. Most
// callers should prefer CachedR3, which shares one plan per shape
// process-wide.
func NewRPlan3(nx, ny, nz int) *RPlan3 {
	p := &RPlan3{Nx: nx, Ny: ny, Nz: nz, Nzh: nz/2 + 1}
	p.rz = NewRPlan(nz)
	// The half grid's complex plan comes from the shared cache: its y/x
	// line plans, tile arenas, and twiddle tables are then reused by any
	// complex transforms of the same half shape.
	p.half = Cached3(nx, ny, p.Nzh)
	p.flops = int64(nx*ny)*rflops(nz) + int64(nx*p.Nzh)*flops(ny) + int64(ny*p.Nzh)*flops(nx)
	p.scratch.New = func() any {
		s := make([]complex128, tileB*p.rz.scratchLen())
		return &s
	}
	return p
}

// Size returns the number of real-grid points Nx·Ny·Nz.
func (p *RPlan3) Size() int { return p.Nx * p.Ny * p.Nz }

// HSize returns the packed half-spectrum length Nx·Ny·(Nz/2+1).
func (p *RPlan3) HSize() int { return p.Nx * p.Ny * p.Nzh }

// Flops returns the modelled operation count of one real 3-D transform:
// the halved r2c model along z plus complex lines over the half grid —
// roughly half of the matching Plan3.Flops().
func (p *RPlan3) Flops() int64 { return p.flops }

// Forward computes the packed half spectrum of the real field src into
// dst (len HSize): X[k] = Σ_j src[j] e^{−iG_k·r_j}, unnormalized,
// matching Plan3.Forward restricted to iz ≤ Nz/2.
func (p *RPlan3) Forward(src []float64, dst []complex128) {
	p.checkLens(src, dst)
	defer ph3DReal.Start().StopFlops(p.flops)
	runUnits(fftJob{rp: p, rx: src, x: dst, kind: jobRZ}, p.Nx*p.Ny)
	sc := p.half.full.fwd
	runUnits(fftJob{p: p.half, s: sc, x: dst, kind: jobY}, sc.yUnits())
	runUnits(fftJob{p: p.half, s: sc, x: dst, kind: jobX}, len(sc.xBlocks))
	perf.Global.AddVector(p.flops)
}

// Inverse reconstructs the real field dst from the packed half spectrum
// src, including the 1/(NxNyNz) normalization. src is clobbered (the
// complex y/x passes run in place before the c2r z pass).
func (p *RPlan3) Inverse(src []complex128, dst []float64) {
	p.checkLens(dst, src)
	defer ph3DReal.Start().StopFlops(p.flops)
	sc := p.half.full.inv
	runUnits(fftJob{p: p.half, s: sc, x: src, kind: jobX, inverse: true}, len(sc.xBlocks))
	runUnits(fftJob{p: p.half, s: sc, x: src, kind: jobY, inverse: true}, sc.yUnits())
	runUnits(fftJob{rp: p, rx: dst, x: src, kind: jobRZ, inverse: true}, p.Nx*p.Ny)
	perf.Global.AddVector(p.flops)
}

// ForwardBatch computes the packed half spectra of nb real fields packed
// contiguously in src (field g occupies src[g*Size():(g+1)*Size()], its
// spectrum dst[g*HSize():(g+1)*HSize()]). Fields are spread over the
// internal/par pool, one field per chunk, and each is transformed
// serially in one arena; the steady state is allocation-free.
func (p *RPlan3) ForwardBatch(src []float64, dst []complex128, nb int) {
	p.checkBatch(src, dst, nb)
	if nb == 0 {
		return
	}
	defer ph3DReal.Start().StopFlops(p.flops * int64(nb))
	runUnits(fftJob{rp: p, rx: src, x: dst, kind: jobRGrids}, nb)
	perf.Global.AddVector(p.flops * int64(nb))
}

// InverseBatch is ForwardBatch's inverse, including each field's
// 1/(NxNyNz) normalization. src is clobbered.
func (p *RPlan3) InverseBatch(src []complex128, dst []float64, nb int) {
	p.checkBatch(dst, src, nb)
	if nb == 0 {
		return
	}
	defer ph3DReal.Start().StopFlops(p.flops * int64(nb))
	runUnits(fftJob{rp: p, rx: dst, x: src, kind: jobRGrids, inverse: true}, nb)
	perf.Global.AddVector(p.flops * int64(nb))
}

func (p *RPlan3) checkLens(re []float64, half []complex128) {
	if len(re) != p.Size() || len(half) != p.HSize() {
		panic(fmt.Sprintf("fft: r2c lengths %d/%d do not match 3-D plan %d/%d",
			len(re), len(half), p.Size(), p.HSize()))
	}
}

func (p *RPlan3) checkBatch(re []float64, half []complex128, nb int) {
	if nb < 0 || len(re) != nb*p.Size() || len(half) != nb*p.HSize() {
		panic("fft: batch lengths do not match 3-D real plan")
	}
}

// applySerial runs one full real 3-D transform on a single goroutine
// with the given scratch and (half-grid) arena. This is the batch
// chunk body.
func (p *RPlan3) applySerial(re []float64, half []complex128, inverse bool, s []complex128, a *arena3) {
	sc := p.half.full.fwd
	yUnits := sc.yUnits()
	xUnits := len(sc.xBlocks)
	if inverse {
		p.half.xTiles(half, sc, true, 0, xUnits, a, nil, 0)
		p.half.yTiles(half, sc, true, 0, yUnits, a)
		p.c2rLines(half, re, 0, p.Nx*p.Ny, s)
		return
	}
	p.r2cLines(re, half, 0, p.Nx*p.Ny, s)
	p.half.yTiles(half, sc, false, 0, yUnits, a)
	p.half.xTiles(half, sc, false, 0, xUnits, a, nil, 0)
}

// r2cLines transforms the contiguous real z-lines [lo, hi) of src into
// packed half-spectrum lines of dst, up to tileB lines per engine call.
func (p *RPlan3) r2cLines(src []float64, dst []complex128, lo, hi int, scratch []complex128) {
	nz, nzh := p.Nz, p.Nzh
	for l := lo; l < hi; l += tileB {
		w := min(tileB, hi-l)
		p.rz.forwardS(src[l*nz:(l+w)*nz], dst[l*nzh:(l+w)*nzh], scratch, w)
	}
}

// c2rLines reconstructs the contiguous real z-lines [lo, hi) of dst
// from packed half-spectrum lines of src, multiplying in the 1/(NxNy)
// the unnormalized x- and y-passes left out.
func (p *RPlan3) c2rLines(src []complex128, dst []float64, lo, hi int, scratch []complex128) {
	nz, nzh := p.Nz, p.Nzh
	norm := 1 / float64(p.Nx*p.Ny)
	for l := lo; l < hi; l += tileB {
		w := min(tileB, hi-l)
		p.rz.inverseS(src[l*nzh:(l+w)*nzh], dst[l*nz:(l+w)*nz], scratch, w, norm)
	}
}

func (p *RPlan3) getScratch() *[]complex128  { return p.scratch.Get().(*[]complex128) }
func (p *RPlan3) putScratch(s *[]complex128) { p.scratch.Put(s) }
