package pw

import (
	"math"
	"math/rand"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/fft"
	"ldcdft/internal/geom"
	"ldcdft/internal/pseudo"
)

// Complex-plan reference implementations of the real-field kernels, kept
// as the pre-r2c code: the equivalence tests below pin the half-spectrum
// fast paths to these, and BenchmarkHartreeFFTComplex uses
// hartreeFFTComplex as the speedup baseline.

// densePlan is the dense complex plan of b's grid, the process-wide
// cached instance.
func densePlan(b *Basis) *fft.Plan3 { return fft.Cached3(b.Grid.N, b.Grid.N, b.Grid.N) }

// g2Grid returns |G|² at every FFT grid point in grid order, summed as
// NewBasis sums it.
func g2Grid(b *Basis) []float64 {
	ax := b.axisG
	out := make([]float64, 0, b.Grid.Size())
	for _, gx := range ax {
		for _, gy := range ax {
			gxy := gx*gx + gy*gy
			for _, gz := range ax {
				out = append(out, gxy+gz*gz)
			}
		}
	}
	return out
}

func hartreeFFTComplex(b *Basis, rho []float64) []float64 {
	size := b.Grid.Size()
	work := make([]complex128, b.Grid.Size())
	for i, v := range rho {
		work[i] = complex(v, 0)
	}
	densePlan(b).Forward(work)
	for i, g2 := range g2Grid(b) {
		if g2 == 0 {
			work[i] = 0
			continue
		}
		work[i] *= complex(4*math.Pi/g2, 0)
	}
	densePlan(b).Inverse(work)
	out := make([]float64, size)
	for i, v := range work {
		out[i] = real(v)
	}
	return out
}

func buildLocalPseudoComplex(b *Basis, species []*atoms.Species, positions []geom.Vec3) []float64 {
	n := b.Grid.N
	size := b.Grid.Size()
	vg := make([]complex128, b.Grid.Size())
	ax := b.axisG
	g2g := g2Grid(b)
	bySpecies := map[*atoms.Species][]geom.Vec3{}
	for ai, sp := range species {
		bySpecies[sp] = append(bySpecies[sp], positions[ai])
	}
	invVol := 1 / b.Volume()
	for sp, pos := range bySpecies {
		idx := 0
		for ix := 0; ix < n; ix++ {
			gx := ax[ix]
			for iy := 0; iy < n; iy++ {
				gy := ax[iy]
				for iz := 0; iz < n; iz++ {
					gz := ax[iz]
					ff := pseudo.LocalG(sp, g2g[idx]) * invVol
					if ff == 0 {
						idx++
						continue
					}
					var sre, sim float64
					for _, r := range pos {
						ph := -(gx*r.X + gy*r.Y + gz*r.Z)
						sre += math.Cos(ph)
						sim += math.Sin(ph)
					}
					vg[idx] += complex(ff*sre, ff*sim)
					idx++
				}
			}
		}
	}
	densePlan(b).Inverse(vg)
	scale := float64(size)
	out := make([]float64, size)
	for i, v := range vg {
		out[i] = real(v) * scale
	}
	return out
}

func localForcesComplex(b *Basis, rho []float64, species []*atoms.Species, positions []geom.Vec3) []geom.Vec3 {
	n := b.Grid.N
	size := b.Grid.Size()
	work := make([]complex128, b.Grid.Size())
	for i, v := range rho {
		work[i] = complex(v, 0)
	}
	densePlan(b).Forward(work)
	invN3 := 1 / float64(size)
	ax := b.axisG
	g2g := g2Grid(b)
	forces := make([]geom.Vec3, len(positions))
	for ix := 0; ix < n; ix++ {
		gx := ax[ix]
		for iy := 0; iy < n; iy++ {
			gy := ax[iy]
			for iz := 0; iz < n; iz++ {
				gz := ax[iz]
				g2 := g2g[(ix*n+iy)*n+iz]
				if g2 == 0 {
					continue
				}
				rhoG := work[(ix*n+iy)*n+iz] * complex(invN3, 0)
				cr := real(rhoG)
				ci := imag(rhoG)
				for ai, sp := range species {
					v := pseudo.LocalG(sp, g2)
					if v == 0 {
						continue
					}
					r := positions[ai]
					ph := -(gx*r.X + gy*r.Y + gz*r.Z)
					cp := math.Cos(ph)
					s := math.Sin(ph)
					re := (cp*ci - s*cr) * v
					forces[ai] = forces[ai].Add(geom.Vec3{X: gx * re, Y: gy * re, Z: gz * re})
				}
			}
		}
	}
	return forces
}

// testRho builds a smooth positive density on the grid.
func testRho(b *Basis, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	g := b.Grid
	rho := make([]float64, g.Size())
	// A few random plane waves on top of a constant background keep the
	// field smooth but unstructured.
	type mode struct {
		kx, ky, kz int
		amp, phase float64
	}
	modes := make([]mode, 6)
	for m := range modes {
		modes[m] = mode{rng.Intn(4), rng.Intn(4), rng.Intn(4),
			0.02 + 0.03*rng.Float64(), 2 * math.Pi * rng.Float64()}
	}
	for ix := 0; ix < g.N; ix++ {
		for iy := 0; iy < g.N; iy++ {
			for iz := 0; iz < g.N; iz++ {
				val := 0.2
				for _, md := range modes {
					val += md.amp * math.Cos(2*math.Pi*float64(md.kx*ix+md.ky*iy+md.kz*iz)/float64(g.N)+md.phase)
				}
				rho[(ix*g.N+iy)*g.N+iz] = val
			}
		}
	}
	return rho
}

// TestHartreeFFTMatchesComplexPath pins the r2c Hartree solve to the
// complex-plan reference on even and odd grids.
func TestHartreeFFTMatchesComplexPath(t *testing.T) {
	for _, n := range []int{10, 9, 16} {
		b := testBasis(t, n, 8, 1.2)
		rho := testRho(b, int64(n))
		got := HartreeFFT(b, rho)
		want := hartreeFFTComplex(b, rho)
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-11 {
				t.Fatalf("n=%d: Hartree r2c differs from complex path at %d by %g", n, i, d)
			}
		}
	}
}

// TestBuildLocalPseudoMatchesComplexPath pins the half-spectrum
// assembly — including the Nyquist-plane Hermitian symmetrization — to
// the full-grid complex reference, with atoms off grid points so the
// Nyquist structure factors are genuinely complex.
func TestBuildLocalPseudoMatchesComplexPath(t *testing.T) {
	species := []*atoms.Species{atoms.Silicon, atoms.Carbon, atoms.Oxygen}
	pos := []geom.Vec3{
		{X: 2.137, Y: 3.011, Z: 4.219},
		{X: 5.023, Y: 4.411, Z: 3.137},
		{X: 1.618, Y: 6.283, Z: 2.718},
	}
	for _, n := range []int{10, 9, 16} {
		b := testBasis(t, n, 8, 1.2)
		got := BuildLocalPseudo(b, species, pos)
		want := buildLocalPseudoComplex(b, species, pos)
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-11 {
				t.Fatalf("n=%d: local pseudo r2c differs from complex path at %d by %g", n, i, d)
			}
		}
	}
}

// TestLocalForcesMatchesComplexPath pins the weighted half-spectrum
// force sum — including the explicit x/y Nyquist mirror terms — to the
// full-grid complex reference.
func TestLocalForcesMatchesComplexPath(t *testing.T) {
	species := []*atoms.Species{atoms.Silicon, atoms.Oxygen}
	pos := []geom.Vec3{
		{X: 2.137, Y: 3.011, Z: 4.219},
		{X: 5.023, Y: 4.411, Z: 3.137},
	}
	for _, n := range []int{10, 9, 16} {
		b := testBasis(t, n, 8, 1.2)
		rho := testRho(b, int64(100+n))
		got := LocalForces(b, rho, species, pos)
		want := localForcesComplex(b, rho, species, pos)
		for ai := range got {
			d := got[ai].Sub(want[ai]).Norm()
			if d > 1e-11 {
				t.Fatalf("n=%d atom %d: r2c force %+v differs from complex path %+v (|Δ|=%g)",
					n, ai, got[ai], want[ai], d)
			}
		}
	}
}
