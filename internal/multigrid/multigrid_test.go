package multigrid

import (
	"math"
	"math/rand"
	"testing"

	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
)

// analyticPair builds a density whose periodic Poisson solution is known:
// ρ(r) = cos(2π k·r / L) has solution V = 4π ρ / |G|² with
// G = 2π k / L (from ∇²V = −4πρ).
func analyticPair(g grid.Grid, kx, ky, kz int) (rho, want *grid.Field) {
	rho = grid.NewField(g)
	want = grid.NewField(g)
	L := g.L
	gvec2 := (2 * math.Pi / L) * (2 * math.Pi / L) * float64(kx*kx+ky*ky+kz*kz)
	for ix := 0; ix < g.N; ix++ {
		for iy := 0; iy < g.N; iy++ {
			for iz := 0; iz < g.N; iz++ {
				p := geom.Vec3{X: float64(ix), Y: float64(iy), Z: float64(iz)}.Scale(g.H())
				phase := 2 * math.Pi * (float64(kx)*p.X + float64(ky)*p.Y + float64(kz)*p.Z) / L
				c := math.Cos(phase)
				i := g.Index(ix, iy, iz)
				rho.Data[i] = c
				want.Data[i] = 4 * math.Pi * c / gvec2
			}
		}
	}
	return rho, want
}

func TestPoissonSingleMode(t *testing.T) {
	g := grid.New(32, 10)
	s, err := NewSolver(g, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	rho, want := analyticPair(g, 1, 0, 0)
	v, res, err := s.SolvePoisson(rho)
	if err != nil {
		t.Fatalf("solve failed after %d cycles, residual %g", res.Cycles, res.Residual)
	}
	// The discrete Laplacian differs from the continuum one by O(h²);
	// compare against the continuum solution with a loose tolerance and
	// against the discrete operator exactly (residual check already done).
	var maxErr float64
	for i := range v.Data {
		if d := math.Abs(v.Data[i] - want.Data[i]); d > maxErr {
			maxErr = d
		}
	}
	amp := 4 * math.Pi / math.Pow(2*math.Pi/10, 2)
	if maxErr > 0.02*amp {
		t.Fatalf("solution error %g exceeds 2%% of amplitude %g", maxErr, amp)
	}
	if res.Levels < 3 {
		t.Fatalf("expected a deep hierarchy for N=32, got %d levels", res.Levels)
	}
}

func TestPoissonDiscretizationConvergence(t *testing.T) {
	// The error vs the continuum solution must shrink ~4x when the grid
	// is refined 2x (second-order discretization).
	errAt := func(n int) float64 {
		g := grid.New(n, 10)
		s, err := NewSolver(g, Options{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		rho, want := analyticPair(g, 1, 1, 0)
		v, _, err := s.SolvePoisson(rho)
		if err != nil {
			t.Fatal(err)
		}
		var m float64
		for i := range v.Data {
			if d := math.Abs(v.Data[i] - want.Data[i]); d > m {
				m = d
			}
		}
		return m
	}
	e16 := errAt(16)
	e32 := errAt(32)
	ratio := e16 / e32
	if ratio < 3.0 || ratio > 5.5 {
		t.Fatalf("discretization order wrong: e16/e32 = %g (want ≈4)", ratio)
	}
}

func TestPoissonZeroSource(t *testing.T) {
	g := grid.New(16, 5)
	s, _ := NewSolver(g, Options{})
	rho := grid.NewField(g)
	v, _, err := s.SolvePoisson(rho)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range v.Data {
		if x != 0 {
			t.Fatal("zero source must give zero potential")
		}
	}
}

func TestPoissonChargedCellCompensated(t *testing.T) {
	// A constant (charged) source is neutralized by the uniform
	// background; the solution is then zero — also through the exact
	// coarsest-level solve of single-level grids (odd sizes, n < 4, the
	// prime 17 through the generic butterfly) and of a two-level one
	// (18 → 9³).
	for _, n := range []int{16, 2, 3, 9, 17, 18, 27} {
		g := grid.New(n, 5)
		s, _ := NewSolver(g, Options{})
		rho := grid.NewField(g)
		for i := range rho.Data {
			rho.Data[i] = 3.7
		}
		v, _, err := s.SolvePoisson(rho)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range v.Data {
			if math.Abs(x) > 1e-10 {
				t.Fatalf("N=%d: compensated uniform charge must give zero potential", n)
			}
		}
	}
}

func TestPoissonZeroMeanSolution(t *testing.T) {
	g := grid.New(16, 8)
	s, _ := NewSolver(g, Options{})
	rho, _ := analyticPair(g, 2, 1, 0)
	v, _, err := s.SolvePoisson(rho)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.Mean()) > 1e-10 {
		t.Fatalf("solution mean %g, want 0", v.Mean())
	}
}

func TestPoissonSuperposition(t *testing.T) {
	// Linearity: V[ρ1+ρ2] == V[ρ1] + V[ρ2].
	g := grid.New(16, 6)
	s, _ := NewSolver(g, Options{Tol: 1e-10})
	r1, _ := analyticPair(g, 1, 0, 0)
	r2, _ := analyticPair(g, 0, 2, 1)
	sum := r1.Clone()
	for i, v := range r2.Data {
		sum.Data[i] += v
	}
	v1, _, err1 := s.SolvePoisson(r1)
	v2, _, err2 := s.SolvePoisson(r2)
	vs, _, err3 := s.SolvePoisson(sum)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	var diff float64
	for i, v := range vs.Data {
		diff = math.Max(diff, math.Abs(v-(v1.Data[i]+v2.Data[i])))
	}
	if diff > 1e-6 {
		t.Fatalf("superposition violated by %g", diff)
	}
}

func TestVCycleCountIndependentOfSize(t *testing.T) {
	// Multigrid's defining property: cycles to convergence are ~constant
	// in problem size (this is what makes the inter-domain solver
	// "globally scalable", §3.2).
	cyclesAt := func(n int) int {
		g := grid.New(n, 10)
		s, err := NewSolver(g, Options{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		rho, _ := analyticPair(g, 1, 2, 0)
		_, res, err := s.SolvePoisson(rho)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	c16 := cyclesAt(16)
	// 12, 18 and 24 are the global grid sizes the engine actually runs.
	for _, n := range []int{12, 18, 24, 64} {
		if c := cyclesAt(n); c > 2*c16+3 {
			t.Fatalf("V-cycle count grows with size: %d (N=16) vs %d (N=%d)", c16, c, n)
		}
	}
}

// randomRho returns a unit-normal density on g.
func randomRho(g grid.Grid, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	rho := grid.NewField(g)
	for i := range rho.Data {
		rho.Data[i] = rng.NormFloat64()
	}
	return rho
}

// The solver's cost per fine-grid point stays bounded whatever the size,
// not only for powers of two. An odd size, or an even one that halves
// to an odd level early, has a large coarsest level: relaxing it 25·n
// sweeps per V-cycle would model ≈ 1 800 operations per point at N = 9,
// 309 at N = 18 and 5 400 at N = 27, against ≈ 90–105 for powers of
// two. The count is the machine-independent model flopsPerCycle; 17
// takes the FFT's generic-prime butterfly.
func TestCostPerPointBoundedForEverySize(t *testing.T) {
	for n := 8; n <= 64; n++ {
		s, err := NewSolver(grid.New(n, 10), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ops := float64(s.flopsPerCycle) / float64(n*n*n); ops > 150 {
			t.Errorf("N=%d (%d levels): %.0f modelled ops per V-cycle per point, want ≤ 150",
				n, len(s.levels), ops)
		}
	}
	for _, n := range []int{8, 9, 12, 16, 17, 18, 24, 27, 32, 36, 48, 64} {
		g := grid.New(n, 10)
		s, err := NewSolver(g, Options{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := s.SolvePoisson(randomRho(g, int64(n)))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if res.Cycles > 8 {
			t.Errorf("N=%d: %d V-cycles to Tol 1e-8, want ≤ 8", n, res.Cycles)
		}
	}
}

// The coarsest level is solved exactly: a single-level grid (any odd
// size, and the n < 4 top grids) converges in one V-cycle to round-off,
// and at N = 18 the 9³ coarse solve leaves a round-off residual.
func TestCoarseSolveExact(t *testing.T) {
	for _, n := range []int{2, 3, 9, 17, 27} {
		g := grid.New(n, 10)
		s, err := NewSolver(g, Options{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		rho := randomRho(g, int64(n))
		mean := rho.Mean()
		var fnorm float64
		for _, v := range rho.Data {
			fnorm = math.Max(fnorm, 4*math.Pi*math.Abs(v-mean))
		}
		_, res, err := s.SolvePoisson(rho)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if res.Levels != 1 || res.Cycles != 1 || res.Residual > 1e-12*fnorm {
			t.Errorf("N=%d: %d levels, %d cycles, residual %g; want 1 level, 1 cycle, ≤ %g",
				n, res.Levels, res.Cycles, res.Residual, 1e-12*fnorm)
		}
	}

	s, err := NewSolver(grid.New(18, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	coarse := s.levels[len(s.levels)-1]
	if coarse.n != 9 {
		t.Fatalf("N=18 coarsest level is %d³, want 9³", coarse.n)
	}
	rng := rand.New(rand.NewSource(9))
	for i := range coarse.f {
		coarse.f[i] = rng.NormFloat64()
	}
	subtractMean(coarse.f)
	s.vcycle(len(s.levels) - 1)
	computeResidual(coarse)
	if r, f := maxAbs(coarse.r), maxAbs(coarse.f); r > 1e-12*f {
		t.Errorf("N=18 coarse solve leaves residual %g, want ≤ %g", r, 1e-12*f)
	}
}

func TestFieldGridMismatch(t *testing.T) {
	g := grid.New(16, 5)
	s, _ := NewSolver(g, Options{})
	wrong := grid.NewField(grid.New(8, 5))
	if _, _, err := s.SolvePoisson(wrong); err == nil {
		t.Fatal("expected grid mismatch error")
	}
}
