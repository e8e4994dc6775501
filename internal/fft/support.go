package fft

import "ldcdft/internal/perf"

// Support3 runs a Plan3's transforms on grids whose spectrum lives on a
// fixed sparse set of points — the plane-wave sphere of a domain, which
// fills 57 of 12³ grid points. A 3-D transform is three passes of line
// transforms (z, then y, then x); where the spectrum is sparse most of
// those lines are identically zero on the way in (inverse) or produce
// coefficients nobody reads on the way out (forward), and the Support3
// skips exactly those:
//
//	inverse   z-pass: the (x,y) sticks that hold a support point
//	          y-pass: every line of an x-plane that holds one
//	          x-pass: every line
//	forward   z-pass: every line
//	          y-pass: every line of a z-plane that holds a support point
//	          x-pass: the (y,z) sticks that hold one
//
// Every line still run goes through the same line kernel, in the same
// pass order, on the same values as in the dense transform, and a
// skipped line is either all zeros (whose transform is all zeros) or
// one whose outputs are never read. The results are therefore those of
// Plan3's own methods bit for bit, up to the sign of exact zeros. A
// support that covers the grid skips nothing: Plan3's methods are the
// Support3 of the full grid.
//
// A Support3 is read-only after NewSupport and shares its plan's arenas
// and the internal/par pool, so it is safe for concurrent use.
type Support3 struct {
	p        *Plan3
	inv, fwd *schedule
}

// schedule lists the lines each pass of one transform direction runs and
// the grid points it reads. Index lists ascend.
type schedule struct {
	zLines  []int   // z-lines (ix*Ny+iy) the z-pass transforms
	planes  []int   // x-planes holding data: the y-pass visits them, the x-pass reads the rest as zero
	yBlocks []block // iz blocks the y-pass transforms in each visited plane
	yRows   [][]int // per visited plane: the rows iy holding input; the rest read as zero
	xBlocks []block // yz-plane offset blocks the x-pass transforms
	flops   int64   // modelled operation count of the lines run
}

// block is a run of w ≤ tileB consecutive offsets — one tile of a
// strided pass.
type block struct{ off, w int }

// NewSupport prepares p's transforms for spectra that vanish outside the
// grid points idx (row-major linear indices, any order, duplicates
// allowed).
func (p *Plan3) NewSupport(idx []int) *Support3 {
	nx, ny, nz := p.Nx, p.Ny, p.Nz
	hasXY := make([]bool, nx*ny)
	hasX := make([]bool, nx)
	hasZ := make([]bool, nz)
	hasYZ := make([]bool, ny*nz)
	for _, i := range idx {
		if i < 0 || i >= p.Size() {
			panic("fft: support index outside the 3-D plan")
		}
		hasXY[i/nz] = true
		hasX[i/(ny*nz)] = true
		hasZ[i%nz] = true
		hasYZ[i%(ny*nz)] = true
	}
	return &Support3{
		p:   p,
		inv: p.newSchedule(hasXY, hasX, filled(nz), filled(ny*nz)),
		fwd: p.newSchedule(filled(nx*ny), filled(nx), hasZ, hasYZ),
	}
}

// newSchedule builds the schedule that runs z-lines zl, y-lines of the
// x-planes yp restricted to the z-columns yz, and x-lines xl. Rows and
// planes outside zl and yp are not read.
func (p *Plan3) newSchedule(zl, yp, yz, xl []bool) *schedule {
	s := &schedule{
		zLines:  indices(zl),
		planes:  indices(yp),
		yBlocks: blocks(yz),
		xBlocks: blocks(xl),
	}
	for _, ix := range s.planes {
		s.yRows = append(s.yRows, indices(zl[ix*p.Ny:(ix+1)*p.Ny]))
	}
	s.flops = int64(len(s.zLines))*flops(p.Nz) +
		int64(len(s.planes)*width(s.yBlocks))*flops(p.Ny) +
		int64(width(s.xBlocks))*flops(p.Nx)
	return s
}

// width is the number of offsets the blocks cover.
func width(bs []block) int {
	n := 0
	for _, b := range bs {
		n += b.w
	}
	return n
}

// filled returns n true values: the mask of a pass that skips nothing.
func filled(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

// indices lists the set positions of mask.
func indices(mask []bool) []int {
	var out []int
	for i, ok := range mask {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// blocks cuts the runs of set positions in mask into tiles of at most
// tileB.
func blocks(mask []bool) []block {
	var out []block
	for i := 0; i < len(mask); {
		if !mask[i] {
			i++
			continue
		}
		w := 1
		for w < tileB && i+w < len(mask) && mask[i+w] {
			w++
		}
		out = append(out, block{off: i, w: w})
		i += w
	}
	return out
}

// InverseFlops returns the modelled operation count (5 n log2 n per
// line) of the lines one pruned inverse runs; ForwardFlops the same for
// one pruned forward.
func (s *Support3) InverseFlops() int64 { return s.inv.flops }
func (s *Support3) ForwardFlops() int64 { return s.fwd.flops }

// ClearSticks zeroes the z-lines of x that hold a support point. They
// are all an inverse reads of its input, so scattering coefficients
// onto a grid cleared this way is the same as onto a fully zeroed one.
func (s *Support3) ClearSticks(x []complex128) {
	nz := s.p.Nz
	for _, l := range s.inv.zLines {
		clear(x[l*nz : (l+1)*nz])
	}
}

// Forward computes the in-place 3-D forward DFT of x at the support
// points; the rest of x is left undefined.
func (s *Support3) Forward(x []complex128) { s.apply(x, s.fwd, false, nil, 0) }

// Inverse computes the in-place 3-D inverse DFT, including the
// 1/(NxNyNz) normalization, of a spectrum that is zero off the support.
// Only the sticks (see ClearSticks) are read; all of x is written.
func (s *Support3) Inverse(x []complex128) { s.apply(x, s.inv, true, nil, s.p.norm()) }

// InverseRawMulReal is Plan3.InverseRawMulReal for a spectrum that is
// zero off the support.
func (s *Support3) InverseRawMulReal(x []complex128, vr []float64) {
	s.apply(x, s.inv, true, vr, 0)
}

// ForwardBatch, InverseBatch and InverseRawMulRealBatch apply the
// single-grid methods to nb grids packed contiguously in x, one grid per
// chunk, as Plan3's batch methods do.
func (s *Support3) ForwardBatch(x []complex128, nb int) { s.applyBatch(x, nb, s.fwd, false, nil, 0) }
func (s *Support3) InverseBatch(x []complex128, nb int) {
	s.applyBatch(x, nb, s.inv, true, nil, s.p.norm())
}
func (s *Support3) InverseRawMulRealBatch(x []complex128, nb int, vr []float64) {
	s.applyBatch(x, nb, s.inv, true, vr, 0)
}

// norm is the 1/(NxNyNz) of the normalized inverse, multiplied in once
// while the last pass writes its tiles back.
func (p *Plan3) norm() float64 { return 1 / float64(p.Size()) }

// yUnits is the number of (plane, iz block) tiles of the y-pass.
func (s *schedule) yUnits() int { return len(s.planes) * len(s.yBlocks) }

// passFlops models one transform of the schedule: its lines plus, when
// vr is fused in, the ×vr of the x-pass write-back at 6 operations per
// point.
func (p *Plan3) passFlops(sc *schedule, vr []float64) int64 {
	if vr != nil {
		return sc.flops + 6*int64(p.Size())
	}
	return sc.flops
}

// apply runs one transform pass by pass, each pass fanned out over the
// internal/par pool. The x-pass write-back multiplies in vr (the raw
// inverse of InverseRawMulReal) or norm (the normalized inverse); an
// inverse given no norm must bring its vr.
func (s *Support3) apply(x []complex128, sc *schedule, inverse bool, vr []float64, norm float64) {
	p := s.p
	if len(x) != p.Size() || (inverse && norm == 0 && len(vr) != p.Size()) {
		panic("fft: data length does not match 3-D plan")
	}
	fl := p.passFlops(sc, vr)
	defer ph3D.Start().StopFlops(fl)
	runUnits(fftJob{p: p, s: sc, x: x, kind: jobZ, inverse: inverse}, len(sc.zLines))
	runUnits(fftJob{p: p, s: sc, x: x, kind: jobY, inverse: inverse}, sc.yUnits())
	runUnits(fftJob{p: p, s: sc, x: x, rx: vr, norm: norm, kind: jobX, inverse: inverse}, len(sc.xBlocks))
	perf.Global.Add(fl)
}

// applyBatch runs nb packed grids, each serially in one arena.
func (s *Support3) applyBatch(x []complex128, nb int, sc *schedule, inverse bool, vr []float64, norm float64) {
	p := s.p
	if nb < 0 || len(x) != nb*p.Size() || (inverse && norm == 0 && len(vr) != p.Size()) {
		panic("fft: batch length does not match 3-D plan")
	}
	if nb == 0 {
		return
	}
	fl := p.passFlops(sc, vr) * int64(nb)
	defer ph3D.Start().StopFlops(fl)
	runUnits(fftJob{p: p, s: sc, x: x, rx: vr, norm: norm, kind: jobGrids, inverse: inverse}, nb)
	perf.Global.Add(fl)
}

// applySerial runs one 3-D transform on a single goroutine with the
// given arena. This is the batch chunk body.
func (p *Plan3) applySerial(x []complex128, sc *schedule, inverse bool, a *arena3, vr []float64, norm float64) {
	p.zLines(x, sc, inverse, 0, len(sc.zLines), a)
	p.yTiles(x, sc, inverse, 0, sc.yUnits(), a)
	p.xTiles(x, sc, inverse, 0, len(sc.xBlocks), a, vr, norm)
}
