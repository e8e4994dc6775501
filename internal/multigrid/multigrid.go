// Package multigrid implements a real-space multigrid Poisson solver for
// the global Hartree potential: ∇²V_H(r) = −4πρ(r) with periodic boundary
// conditions (§3.2, "Scalable inter-domain computation"). The V-cycle
// hierarchy is the tree data structure (Fig. 3, blue lines) that makes
// the inter-domain part of the GSLF solver scalable: communication volume
// shrinks geometrically at upper tree levels. The coarsest level — at
// scale the one gathered to a single node — is solved exactly by
// diagonalising its periodic 7-point operator with a real 3-D FFT.
package multigrid

import (
	"errors"
	"fmt"
	"math"

	"ldcdft/internal/fft"
	"ldcdft/internal/grid"
	"ldcdft/internal/perf"
)

// phPoisson times the global Hartree solves. phSmooth and phResidual
// break the V-cycle down into its two hot stencil kernels (stencil.go);
// spans wrap whole sweep batches — a level's pre/post-smoothing loop,
// one residual evaluation — rather than single sweeps, so the coarse
// levels (microseconds per sweep) are not swamped by timer overhead.
// Operation counts use the same per-point model as flopsPerCycle (8 per
// smoothed point, 9 per residual point). The coarsest level's exact
// solve is timed by the fft package's own real-transform phase.
var (
	phPoisson  = perf.GetPhase("multigrid/poisson")
	phSmooth   = perf.GetPhase("multigrid/smooth")
	phResidual = perf.GetPhase("multigrid/residual")
)

// Options configures the solver.
type Options struct {
	Tol float64 // max-norm residual tolerance relative to |f|; default 1e-8
}

func (o *Options) setDefaults() {
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
}

// The V-cycle shape: smoothing sweeps before and after each coarse-grid
// correction, the coarsest level size, and the cycle budget of one solve.
const (
	preSmooth  = 3
	postSmooth = 3
	coarseN    = 4
	maxCycles  = 60
)

// ErrNoConvergence is returned when the V-cycle iteration stalls above
// tolerance.
var ErrNoConvergence = errors.New("multigrid: V-cycle iteration did not converge")

// Result carries solver diagnostics.
type Result struct {
	Cycles   int
	Residual float64 // final max-norm residual
	Levels   int
}

// level holds one grid of the hierarchy.
type level struct {
	n       int
	h2      float64 // h²
	v, f, r []float64
}

// Solver is a reusable multigrid Poisson solver for a fixed grid.
type Solver struct {
	g      grid.Grid
	levels []*level
	opts   Options

	// half and quarter are the separable transfer passes' intermediate
	// grids, sized for the top level (n³/2 and n³/4) and shared by every
	// level; nil when the hierarchy has a single level.
	half, quarter []float64

	// The coarsest level's exact solve: its real 3-D transform plan, the
	// packed half spectrum it works in, and 1/λ(k) of the periodic
	// 7-point operator over that half spectrum (0 at k = 0).
	plan      *fft.RPlan3
	spec      []complex128
	invLambda []float64

	// flopsPerCycle is the modelled operation count of one V-cycle plus
	// the top-level convergence check, precomputed from the hierarchy.
	flopsPerCycle int64
}

// NewSolver builds the level hierarchy for grid g: the grid halves while
// its size is even and the next level keeps at least coarseN points per
// side, and the last level is solved exactly. Any size works; an odd
// size is a single level, solved exactly in one V-cycle.
func NewSolver(g grid.Grid, opts Options) (*Solver, error) {
	opts.setDefaults()
	s := &Solver{g: g, opts: opts}
	n := g.N
	h := g.H()
	for {
		s.levels = append(s.levels, &level{
			n:  n,
			h2: h * h,
			v:  make([]float64, n*n*n),
			f:  make([]float64, n*n*n),
			r:  make([]float64, n*n*n),
		})
		if n%2 != 0 || n/2 < coarseN || n/2 < 2 {
			break
		}
		n /= 2
		h *= 2
	}
	if len(s.levels) > 1 {
		n3 := g.N * g.N * g.N
		s.half = make([]float64, n3/2)
		s.quarter = make([]float64, n3/4)
	}
	s.initCoarse()
	// Operation-count model of one V-cycle: ~8 ops per point per smoothing
	// sweep, 9 per residual point, 2 per mean subtraction, 54 per coarse
	// restriction point, ~8 per prolongated fine point (the transfer
	// terms count the unfactored stencils); the coarsest level costs its
	// forward and inverse transform and the 1/λ scaling.
	for l, lev := range s.levels {
		n3 := int64(lev.n) * int64(lev.n) * int64(lev.n)
		if l == len(s.levels)-1 {
			s.flopsPerCycle += 2*s.plan.Flops() + 2*int64(len(s.spec))
			continue
		}
		nc := int64(s.levels[l+1].n)
		s.flopsPerCycle += (preSmooth+postSmooth)*8*n3 + 9*n3 + 2*n3 + 54*nc*nc*nc + 8*n3
	}
	top := int64(s.levels[0].n)
	s.flopsPerCycle += 10 * top * top * top // convergence-check residual
	return s, nil
}

// initCoarse prepares the coarsest level's exact solve. The periodic
// 7-point operator (Σ neighbours − 6v)/h² is diagonal in the discrete
// Fourier basis with eigenvalue λ(k) = (2cos 2πkx/n + 2cos 2πky/n +
// 2cos 2πkz/n − 6)/h²; λ(0) = 0 is the constant nullspace, whose
// coefficient the solve sets to zero.
func (s *Solver) initCoarse() {
	lev := s.levels[len(s.levels)-1]
	n := lev.n
	s.plan = fft.CachedR3(n, n, n)
	s.spec = make([]complex128, s.plan.HSize())
	s.invLambda = make([]float64, len(s.spec))
	c := make([]float64, n)
	for k := range c {
		c[k] = 2 * math.Cos(2*math.Pi*float64(k)/float64(n))
	}
	nzh := s.plan.Nzh
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < nzh; iz++ {
				if ix == 0 && iy == 0 && iz == 0 {
					continue
				}
				lambda := (c[ix] + c[iy] + c[iz] - 6) / lev.h2
				s.invLambda[(ix*n+iy)*nzh+iz] = 1 / lambda
			}
		}
	}
}

// solveCoarse sets lev.v to the zero-mean solution of ∇²v = f on the
// coarsest level: forward transform, scale by 1/λ(k), inverse transform.
func (s *Solver) solveCoarse(lev *level) {
	s.plan.Forward(lev.f, s.spec)
	spec := s.spec[:len(s.invLambda)]
	for i, w := range s.invLambda {
		spec[i] = complex(real(spec[i])*w, imag(spec[i])*w)
	}
	s.plan.Inverse(spec, lev.v)
}

// SolvePoisson solves ∇²V = −4πρ and returns V with zero mean. The
// compatibility condition for the periodic problem (zero-mean source) is
// enforced by subtracting the mean of ρ, which physically corresponds to
// the uniform compensating background of a charged periodic cell.
func (s *Solver) SolvePoisson(rho *grid.Field) (*grid.Field, Result, error) {
	if rho.Grid != s.g {
		return nil, Result{}, fmt.Errorf("multigrid: field grid mismatch")
	}
	sp := phPoisson.Start()
	top := s.levels[0]
	mean := rho.Mean()
	for i, v := range rho.Data {
		top.f[i] = -4 * math.Pi * (v - mean)
	}
	// Project out the constant mode exactly: any residual mean in f lies
	// in the nullspace of the periodic Laplacian and would stall the
	// iteration at that level forever.
	subtractMean(top.f)
	var fnorm float64
	for _, v := range top.f {
		if a := math.Abs(v); a > fnorm {
			fnorm = a
		}
	}
	for i := range top.v {
		top.v[i] = 0
	}
	if fnorm == 0 {
		sp.Stop()
		return grid.NewField(s.g), Result{Levels: len(s.levels)}, nil
	}
	tol := s.opts.Tol * fnorm
	// Absolute floor: round-off in the mean subtraction leaves O(1e-16)
	// source noise that no iteration can resolve below machine epsilon.
	if tol < 1e-13 {
		tol = 1e-13
	}
	res := Result{Levels: len(s.levels)}
	for cycle := 1; cycle <= maxCycles; cycle++ {
		s.vcycle(0)
		// The coarse transforms count their own share (the fft package).
		perf.Global.Add(s.flopsPerCycle - 2*s.plan.Flops())
		res.Cycles = cycle
		res.Residual = s.residualNorm(top)
		if res.Residual < tol {
			out := grid.NewField(s.g)
			copy(out.Data, top.v)
			subtractMean(out.Data)
			sp.StopFlops(int64(res.Cycles) * s.flopsPerCycle)
			return out, res, nil
		}
	}
	sp.StopFlops(int64(res.Cycles) * s.flopsPerCycle)
	return nil, res, ErrNoConvergence
}

func subtractMean(x []float64) {
	var m float64
	for _, v := range x {
		m += v
	}
	m /= float64(len(x))
	for i := range x {
		x[i] -= m
	}
}

// vcycle runs one V-cycle starting at level l.
func (s *Solver) vcycle(l int) {
	lev := s.levels[l]
	if l == len(s.levels)-1 {
		s.solveCoarse(lev)
		return
	}
	n3 := int64(lev.n) * int64(lev.n) * int64(lev.n)
	sp := phSmooth.Start()
	for i := 0; i < preSmooth; i++ {
		smooth(lev)
	}
	sp.StopFlops(preSmooth * 8 * n3)
	sp = phResidual.Start()
	computeResidual(lev)
	sp.StopFlops(9 * n3)
	coarse := s.levels[l+1]
	restrict(lev.r, coarse.f, s.half, s.quarter, coarse.n)
	for i := range coarse.v {
		coarse.v[i] = 0
	}
	s.vcycle(l + 1)
	prolong(coarse.v, lev.v, s.half, s.quarter, coarse.n)
	sp = phSmooth.Start()
	for i := 0; i < postSmooth; i++ {
		smooth(lev)
	}
	sp.StopFlops(postSmooth * 8 * n3)
	subtractMean(lev.v)
}

func wrapMul(i, n int) int {
	if i < 0 {
		return i + n
	}
	if i >= n {
		return i - n
	}
	return i
}

func (s *Solver) residualNorm(lev *level) float64 {
	sp := phResidual.Start()
	computeResidual(lev)
	sp.StopFlops(9 * int64(lev.n) * int64(lev.n) * int64(lev.n))
	var m float64
	for _, v := range lev.r {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// residualWrap is computeResidual's per-point wrapMul form for n < 4.
func residualWrap(lev *level) {
	n, h2 := lev.n, lev.h2
	v, f, r := lev.v, lev.f, lev.r
	for ix := 0; ix < n; ix++ {
		xm := wrapMul(ix-1, n) * n * n
		xp := wrapMul(ix+1, n) * n * n
		x0 := ix * n * n
		for iy := 0; iy < n; iy++ {
			ym := wrapMul(iy-1, n) * n
			yp := wrapMul(iy+1, n) * n
			y0 := iy * n
			for iz := 0; iz < n; iz++ {
				zm := wrapMul(iz-1, n)
				zp := wrapMul(iz+1, n)
				lap := (v[xm+y0+iz] + v[xp+y0+iz] +
					v[x0+ym+iz] + v[x0+yp+iz] +
					v[x0+y0+zm] + v[x0+y0+zp] - 6*v[x0+y0+iz]) / h2
				r[x0+y0+iz] = f[x0+y0+iz] - lap
			}
		}
	}
}
