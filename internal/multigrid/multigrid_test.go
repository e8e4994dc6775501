package multigrid

import (
	"math"
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
	// background; the solution is then zero.
	g := grid.New(16, 5)
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
			t.Fatal("compensated uniform charge must give zero potential")
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
	c64 := cyclesAt(64)
	if c64 > 2*c16+3 {
		t.Fatalf("V-cycle count grows with size: %d (N=16) vs %d (N=64)", c16, c64)
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
