// Package multigrid implements a real-space multigrid Poisson solver for
// the global Hartree potential: ∇²V_H(r) = −4πρ(r) with periodic boundary
// conditions (§3.2, "Scalable inter-domain computation"). The V-cycle
// hierarchy is the tree data structure (Fig. 3, blue lines) that makes
// the inter-domain part of the GSLF solver scalable: communication volume
// shrinks geometrically at upper tree levels.
package multigrid

import (
	"errors"
	"fmt"
	"math"

	"ldcdft/internal/grid"
	"ldcdft/internal/perf"
)

// phPoisson times the global Hartree solves. phSmooth and phResidual
// break the V-cycle down into its two hot stencil kernels (stencil.go);
// spans wrap whole sweep batches — a level's pre/post-smoothing loop,
// the coarsest-level relaxation, one residual evaluation — rather than
// single sweeps, so the coarse levels (microseconds per sweep) are not
// swamped by timer overhead. Operation counts use the same per-point
// model as flopsPerCycle (8 per smoothed point, 9 per residual point).
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

	// flopsPerCycle is the modelled stencil operation count of one V-cycle
	// plus the top-level convergence check, precomputed from the hierarchy.
	flopsPerCycle int64
}

// NewSolver builds the level hierarchy for grid g. The grid size must be
// even enough to coarsen at least once to coarseN or below; any size
// works, but power-of-two sizes give the deepest (fastest) hierarchies.
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
	// Operation-count model of one V-cycle: ~8 ops per point per smoothing
	// sweep, 9 per residual point, 2 per mean subtraction, 54 per coarse
	// restriction point, ~8 per prolongated fine point; the coarsest level
	// relaxes 25·n sweeps.
	for l, lev := range s.levels {
		n3 := int64(lev.n) * int64(lev.n) * int64(lev.n)
		if l == len(s.levels)-1 {
			s.flopsPerCycle += 25*int64(lev.n)*8*n3 + 2*n3
			continue
		}
		nc := int64(s.levels[l+1].n)
		s.flopsPerCycle += (preSmooth+postSmooth)*8*n3 + 9*n3 + 2*n3 + 54*nc*nc*nc + 8*n3
	}
	top := int64(s.levels[0].n)
	s.flopsPerCycle += 10 * top * top * top // convergence-check residual
	return s, nil
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
		perf.Global.AddScalar(s.flopsPerCycle)
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
	n3 := int64(lev.n) * int64(lev.n) * int64(lev.n)
	if l == len(s.levels)-1 {
		// Coarsest level: relax hard. The nullspace (constant mode) is
		// projected out after smoothing.
		sp := phSmooth.Start()
		for i := 0; i < 25*lev.n; i++ {
			smooth(lev)
		}
		sp.StopFlops(25 * int64(lev.n) * 8 * n3)
		subtractMean(lev.v)
		return
	}
	sp := phSmooth.Start()
	for i := 0; i < preSmooth; i++ {
		smooth(lev)
	}
	sp.StopFlops(preSmooth * 8 * n3)
	sp = phResidual.Start()
	computeResidual(lev)
	sp.StopFlops(9 * n3)
	coarse := s.levels[l+1]
	restrictFull(lev.r, coarse.f, lev.n, coarse.n)
	for i := range coarse.v {
		coarse.v[i] = 0
	}
	s.vcycle(l + 1)
	prolongAdd(coarse.v, lev.v, coarse.n, lev.n)
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

// restrictFull applies 3-D full weighting (27-point stencil with weights
// 8:4:2:1 over center:face:edge:corner, normalized by 64) from fine to
// coarse.
func restrictFull(fine, coarse []float64, nf, nc int) {
	for cx := 0; cx < nc; cx++ {
		fx := 2 * cx
		for cy := 0; cy < nc; cy++ {
			fy := 2 * cy
			for cz := 0; cz < nc; cz++ {
				fz := 2 * cz
				var sum float64
				for dx := -1; dx <= 1; dx++ {
					wx := 2 - absInt(dx)
					x := wrapMul(fx+dx, nf) * nf * nf
					for dy := -1; dy <= 1; dy++ {
						wy := 2 - absInt(dy)
						y := wrapMul(fy+dy, nf) * nf
						for dz := -1; dz <= 1; dz++ {
							wz := 2 - absInt(dz)
							z := wrapMul(fz+dz, nf)
							sum += float64(wx*wy*wz) * fine[x+y+z]
						}
					}
				}
				coarse[(cx*nc+cy)*nc+cz] = sum / 64
			}
		}
	}
}

func absInt(i int) int {
	if i < 0 {
		return -i
	}
	return i
}

// prolongAdd adds the trilinear interpolation of the coarse correction
// onto the fine solution.
func prolongAdd(coarse, fine []float64, nc, nf int) {
	cAt := func(x, y, z int) float64 {
		return coarse[(wrapMul(x, nc)*nc+wrapMul(y, nc))*nc+wrapMul(z, nc)]
	}
	for fx := 0; fx < nf; fx++ {
		cx := fx / 2
		ox := fx & 1
		for fy := 0; fy < nf; fy++ {
			cy := fy / 2
			oy := fy & 1
			for fz := 0; fz < nf; fz++ {
				cz := fz / 2
				oz := fz & 1
				var val float64
				switch {
				case ox == 0 && oy == 0 && oz == 0:
					val = cAt(cx, cy, cz)
				case ox == 1 && oy == 0 && oz == 0:
					val = 0.5 * (cAt(cx, cy, cz) + cAt(cx+1, cy, cz))
				case ox == 0 && oy == 1 && oz == 0:
					val = 0.5 * (cAt(cx, cy, cz) + cAt(cx, cy+1, cz))
				case ox == 0 && oy == 0 && oz == 1:
					val = 0.5 * (cAt(cx, cy, cz) + cAt(cx, cy, cz+1))
				case ox == 1 && oy == 1 && oz == 0:
					val = 0.25 * (cAt(cx, cy, cz) + cAt(cx+1, cy, cz) +
						cAt(cx, cy+1, cz) + cAt(cx+1, cy+1, cz))
				case ox == 1 && oy == 0 && oz == 1:
					val = 0.25 * (cAt(cx, cy, cz) + cAt(cx+1, cy, cz) +
						cAt(cx, cy, cz+1) + cAt(cx+1, cy, cz+1))
				case ox == 0 && oy == 1 && oz == 1:
					val = 0.25 * (cAt(cx, cy, cz) + cAt(cx, cy+1, cz) +
						cAt(cx, cy, cz+1) + cAt(cx, cy+1, cz+1))
				default:
					val = 0.125 * (cAt(cx, cy, cz) + cAt(cx+1, cy, cz) +
						cAt(cx, cy+1, cz) + cAt(cx+1, cy+1, cz) +
						cAt(cx, cy, cz+1) + cAt(cx+1, cy, cz+1) +
						cAt(cx, cy+1, cz+1) + cAt(cx+1, cy+1, cz+1))
				}
				fine[(fx*nf+fy)*nf+fz] += val
			}
		}
	}
}

// smoothWrap is the per-point wrapMul sweep, kept for the degenerate
// sizes (n < 4) where the z peel's interior would be empty or the
// wrapped neighbours coincide. It is the same code as the reference in
// stencil_test.go.
func smoothWrap(lev *level) {
	n, h2 := lev.n, lev.h2
	v, f := lev.v, lev.f
	for parity := 0; parity < 2; parity++ {
		for ix := 0; ix < n; ix++ {
			xm := wrapMul(ix-1, n) * n * n
			xp := wrapMul(ix+1, n) * n * n
			x0 := ix * n * n
			for iy := 0; iy < n; iy++ {
				ym := wrapMul(iy-1, n) * n
				yp := wrapMul(iy+1, n) * n
				y0 := iy * n
				for iz := (parity + ix + iy) & 1; iz < n; iz += 2 {
					zm := wrapMul(iz-1, n)
					zp := wrapMul(iz+1, n)
					sum := v[xm+y0+iz] + v[xp+y0+iz] +
						v[x0+ym+iz] + v[x0+yp+iz] +
						v[x0+y0+zm] + v[x0+y0+zp]
					v[x0+y0+iz] = (sum - h2*f[x0+y0+iz]) / 6
				}
			}
		}
	}
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
