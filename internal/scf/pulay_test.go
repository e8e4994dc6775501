package scf

import (
	"math"
	"testing"
)

func TestPulayBeatsLinearOnLinearMap(t *testing.T) {
	// Fixed point of g(x) = a + Mx for a stiff diagonal M: DIIS should
	// converge dramatically faster than damped linear mixing.
	n := 6
	mdiag := []float64{0.9, 0.7, 0.5, -0.3, 0.2, 0.85}
	a := []float64{1, 2, 3, 4, 5, 6}
	g := func(x []float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = a[i] + mdiag[i]*x[i]
		}
		return out
	}
	iterate := func(m Mixer) int {
		x := make([]float64, n)
		for i := 1; i <= 500; i++ {
			out := g(x)
			var res float64
			for j := range x {
				res += math.Abs(out[j] - x[j])
			}
			if res < 1e-10 {
				return i
			}
			x = m.Mix(x, out)
		}
		return 500
	}
	nl := iterate(&LinearMixer{Alpha: 0.3})
	np := iterate(&PulayMixer{Alpha: 0.3, Depth: 6})
	if np >= nl/2 {
		t.Fatalf("Pulay (%d iters) should be far faster than linear (%d)", np, nl)
	}
	// DIIS on an n-dimensional affine map converges in about n+1 steps.
	if np > 4*n {
		t.Fatalf("Pulay took %d iterations for a %d-dim linear problem", np, n)
	}
}

func TestPulayReset(t *testing.T) {
	m := &PulayMixer{Alpha: 0.4, Depth: 3}
	a := m.Mix([]float64{0, 0}, []float64{1, 1})
	_ = m.Mix([]float64{1, 0}, []float64{0, 1})
	m.Reset()
	b := m.Mix([]float64{0, 0}, []float64{1, 1})
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-14 {
			t.Fatal("Reset should restore first-call behaviour")
		}
	}
}

func TestPulayDegenerateHistory(t *testing.T) {
	// Identical residuals make the DIIS matrix singular; the mixer must
	// fall back gracefully rather than produce NaNs.
	m := &PulayMixer{Alpha: 0.5, Depth: 4}
	var out []float64
	for i := 0; i < 6; i++ {
		out = m.Mix([]float64{1, 2}, []float64{2, 3})
	}
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("degenerate history produced %v", out)
		}
	}
}

func TestSolveDense(t *testing.T) {
	// 2x + y = 5; x − y = 1 → x=2, y=1.
	a := []float64{2, 1, 1, -1}
	x, ok := solveDense(a, []float64{5, 1})
	if !ok {
		t.Fatal("solvable system reported singular")
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("got %v", x)
	}
	// Singular.
	s := []float64{1, 1, 1, 1}
	if _, ok := solveDense(s, []float64{1, 2}); ok {
		t.Fatal("singular system should report !ok")
	}
}
