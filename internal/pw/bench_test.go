package pw

import (
	"math/rand"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/linalg"
	"ldcdft/internal/perf"
	"ldcdft/internal/pseudo"
)

// benchSetup builds a domain-sized Hamiltonian with projectors and a
// band block, approximating one LDC domain's workload.
func benchSetup(b *testing.B, nb int) (*Hamiltonian, *linalg.CMatrix) {
	b.Helper()
	basis, err := NewBasis(grid.New(18, 12), 3.0)
	if err != nil {
		b.Fatal(err)
	}
	species := []*atoms.Species{atoms.Silicon, atoms.Carbon, atoms.Silicon, atoms.Carbon}
	pos := []geom.Vec3{{X: 3, Y: 3, Z: 3}, {X: 9, Y: 3, Z: 3}, {X: 3, Y: 9, Z: 9}, {X: 9, Y: 9, Z: 9}}
	proj := pseudo.BuildProjectors(basis.G, basis.G2, basis.Volume(), species, pos)
	h := NewHamiltonian(basis, proj)
	h.SetLocalPotential(BuildLocalPseudo(basis, species, pos))
	psi, err := RandomOrbitals(basis, nb, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return h, psi
}

// BenchmarkNonlocal is the §3.4 algebraic transformation on the nonlocal
// pseudopotential alone, over the 16-band domain of benchSetup: BLAS2
// applies the projectors band by band (pseudo.ApplyBandByBand, Eq. (4)),
// BLAS3 to the whole band block at once (ApplyAllBand, Eq. (5)) — the
// form ApplyAllInto runs. Timing V_nl without the FFTs of the local term
// keeps the ratio of the two algebraic forms visible.
func BenchmarkNonlocal(b *testing.B) {
	h, psi := benchSetup(b, 16)
	out := linalg.NewCMatrix(psi.Rows, psi.Cols)
	b.Run("BLAS2", func(b *testing.B) {
		col := make([]complex128, psi.Rows)
		res := make([]complex128, psi.Rows)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for n := 0; n < psi.Cols; n++ {
				psi.Col(n, col)
				out.Col(n, res)
				h.proj.ApplyBandByBand(col, res)
				out.SetCol(n, res)
			}
		}
	})
	b.Run("BLAS3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.proj.ApplyAllBand(psi, out)
		}
	})
}

// BenchmarkApplyAll is the HΨ crossover: the steady-state all-band apply
// by the dense operator and by the FFT path at each basis of
// crossoverHΨ, whichever path NewBasis would pick there — the dense
// operator is forced onto the three large bases, and the FFT path
// called directly on the four small ones. Run it at GOMAXPROCS=1 for
// the single-core table of DESIGN.md.
func BenchmarkApplyAll(b *testing.B) {
	for _, c := range crossoverHΨ {
		for _, dense := range []bool{true, false} {
			name := c.shape.name + "/fft"
			if dense {
				name = c.shape.name + "/dense"
			}
			b.Run(name, func(b *testing.B) {
				basis := c.shape.basis(b)
				if dense && basis.vdiff == nil {
					basis.vdiff = differenceTable(basis.FFTi, basis.Grid.N)
				}
				h := c.shape.hamiltonianOn(basis)
				h.SetLocalPotential(randomPotential(basis, rand.New(rand.NewSource(1))))
				psi, err := RandomOrbitals(basis, c.nb, rand.New(rand.NewSource(1)))
				if err != nil {
					b.Fatal(err)
				}
				out := linalg.NewCMatrix(psi.Rows, psi.Cols)
				apply := func() { h.applyFFT(psi, out) }
				if dense {
					apply = func() { h.ApplyAllInto(psi, out) }
				}
				apply() // warm the basis pools
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					apply()
				}
			})
		}
	}
}

// BenchmarkApplyAllPruned vs BenchmarkApplyAllDense is the sphere-pruning
// win on the whole HΨ by transforms at the two LDC domain shapes of the
// end-to-end benchmark (a qmd-sic8 domain: 12³ points, 57 waves; a
// qmd-27dom one: 10³, 33 waves; 14 bands each). Pruned is the
// production FFT path (applyFFT — ApplyAllInto itself takes the dense
// operator at these sizes); Dense is the retained full-grid reference of
// pruned_test.go. The ratio is the share of line transforms and
// zero-fill skipped, and does not depend on the machine.
func BenchmarkApplyAllPruned(b *testing.B) { benchApplyAllDomain(b, true) }
func BenchmarkApplyAllDense(b *testing.B)  { benchApplyAllDomain(b, false) }

func benchApplyAllDomain(b *testing.B, pruned bool) {
	const nb = 14
	for _, sh := range []domainShape{domainG12, domainG10} {
		b.Run(sh.name, func(b *testing.B) {
			h := sh.hamiltonian(b)
			basis := h.Basis
			psi, err := RandomOrbitals(basis, nb, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			out := linalg.NewCMatrix(psi.Rows, psi.Cols)
			batch := make([]complex128, nb*basis.Grid.Size())
			apply := func() { denseApplyAllInto(h, psi, out, batch) }
			if pruned {
				apply = func() { h.applyFFT(psi, out) }
			}
			apply() // warm the basis and arena pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				apply()
			}
		})
	}
}

// BenchmarkFusedVloc is the fusion win on the FFT path, over the
// 437-wave basis of benchSetup (which takes that path): fused runs the
// ×V_loc multiply inside the inverse transform's x-pass, separate runs
// the inverse FFT, the N³ rescale and the V_loc multiply as their own
// passes.
func BenchmarkFusedVloc(b *testing.B) {
	defer func(prev bool) { fuseVloc = prev }(fuseVloc)
	h, psi := benchSetup(b, 16)
	out := linalg.NewCMatrix(psi.Rows, psi.Cols)
	for _, fused := range []bool{true, false} {
		name := "separate"
		if fused {
			name = "fused"
		}
		b.Run(name, func(b *testing.B) {
			fuseVloc = fused
			h.applyFFT(psi, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.applyFFT(psi, out)
			}
		})
	}
}

func BenchmarkOrthonormalize(b *testing.B) {
	_, psi := benchSetup(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := psi.Clone()
		if err := Orthonormalize(work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDensity is the density's side of the crossover: ρ from nb
// occupied bands by the density matrix (dense) and by band transforms
// (fft) at each basis of crossoverHΨ, the dense path forced onto the
// three large bases and the FFT path called directly on the four small
// ones, as BenchmarkApplyAll does. Run it at GOMAXPROCS=1 for the
// density column of DESIGN.md's crossover table.
func BenchmarkDensity(b *testing.B) {
	for _, c := range crossoverHΨ {
		for _, dense := range []bool{true, false} {
			name := c.shape.name + "/fft"
			if dense {
				name = c.shape.name + "/dense"
			}
			b.Run(name, func(b *testing.B) {
				basis := c.shape.basis(b)
				if dense && basis.vdiff == nil {
					basis.vdiff = differenceTable(basis.FFTi, basis.Grid.N)
				}
				psi, err := RandomOrbitals(basis, c.nb, rand.New(rand.NewSource(1)))
				if err != nil {
					b.Fatal(err)
				}
				occ := make([]float64, c.nb)
				for n := range occ {
					occ[n] = 2 / float64(1+n/8) // fractional, none zero
				}
				rho := make([]float64, basis.Grid.Size())
				var s Scratch
				density := func() { densityFFT(basis, psi, occ, rho) }
				if dense {
					density = func() { DensityInto(basis, psi, occ, rho, &s) }
				}
				density() // warm the scratch and the basis pools
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					density()
				}
			})
		}
	}
}

// BenchmarkSolveAllBand is one domain diagonalization as the SCF loop
// runs it (three expansions, production band counts) at the two LDC
// domain bases of the end-to-end benchmark: g10 (qmd-27dom, 33 waves,
// 10 bands) and g12 (qmd-sic8, 57 waves, 14 bands). Every run starts
// from the same random orbitals.
func BenchmarkSolveAllBand(b *testing.B) {
	for _, c := range []struct {
		shape domainShape
		nb    int
	}{{domainG10, 10}, {domainG12, 14}} {
		b.Run(c.shape.name, func(b *testing.B) {
			h := c.shape.hamiltonian(b)
			start, err := RandomOrbitals(h.Basis, c.nb, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			psi := start.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(psi.Data, start.Data)
				if _, err := SolveAllBand(h, psi, 3, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveAllBandIteration(b *testing.B) {
	h, psi := benchSetup(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveAllBand(h, psi, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHartreeFFT measures the Poisson solve on the r2c fast path;
// BenchmarkHartreeFFTComplex runs the retained complex-plan reference
// on the same density, so the r2c speedup is the ratio of the two.
func BenchmarkHartreeFFT(b *testing.B) {
	h, _ := benchSetup(b, 2)
	rho := make([]float64, h.Basis.Grid.Size())
	for i := range rho {
		rho[i] = 0.01 * float64(i%7)
	}
	HartreeFFT(h.Basis, rho) // warm the half-grid and scratch pools
	ph := perf.GetPhase("fft/3d-real")
	before := ph.Flops()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HartreeFFT(h.Basis, rho)
	}
	b.StopTimer()
	gflop := float64(ph.Flops()-before) / 1e9
	b.ReportMetric(gflop/b.Elapsed().Seconds(), "GFLOP/s")
}

func BenchmarkHartreeFFTComplex(b *testing.B) {
	h, _ := benchSetup(b, 2)
	rho := make([]float64, h.Basis.Grid.Size())
	for i := range rho {
		rho[i] = 0.01 * float64(i%7)
	}
	hartreeFFTComplex(h.Basis, rho)
	ph := perf.GetPhase("fft/3d")
	before := ph.Flops()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hartreeFFTComplex(h.Basis, rho)
	}
	b.StopTimer()
	gflop := float64(ph.Flops()-before) / 1e9
	b.ReportMetric(gflop/b.Elapsed().Seconds(), "GFLOP/s")
}
