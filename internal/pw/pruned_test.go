package pw

import (
	"math"
	"math/rand"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/linalg"
	"ldcdft/internal/pseudo"
)

// The dense* functions are the wave-function paths as they were before
// the basis learned its sphere: a full N³ zero-fill per band and the
// dense plan's transforms, with every other operation in the order the
// production code uses. They exist only here, as the reference the
// pruned paths must reproduce bit for bit.

func denseScatterColumn(b *Basis, psi *linalg.CMatrix, n int, dst []complex128) {
	for i := range dst {
		dst[i] = 0
	}
	for gi, fi := range b.FFTi {
		dst[fi] = psi.Data[gi*psi.Cols+n]
	}
}

func denseToRealSpaceBatch(b *Basis, psi *linalg.CMatrix) []complex128 {
	size := b.Grid.Size()
	batch := make([]complex128, psi.Cols*size)
	for n := 0; n < psi.Cols; n++ {
		denseScatterColumn(b, psi, n, batch[n*size:(n+1)*size])
	}
	densePlan(b).InverseBatch(batch, psi.Cols)
	n3 := complex(float64(size), 0)
	for i := range batch {
		batch[i] *= n3
	}
	return batch
}

func denseApplyAll(h *Hamiltonian, psi *linalg.CMatrix) *linalg.CMatrix {
	out := linalg.NewCMatrix(psi.Rows, psi.Cols)
	denseApplyAllInto(h, psi, out, make([]complex128, psi.Cols*h.Basis.Grid.Size()))
	return out
}

// denseApplyAllInto takes its batch buffer from the caller so that
// BenchmarkApplyAllDense allocates as little as applyFFT does.
func denseApplyAllInto(h *Hamiltonian, psi, out *linalg.CMatrix, batch []complex128) {
	b := h.Basis
	size := b.Grid.Size()
	nb := psi.Cols
	for n := 0; n < nb; n++ {
		denseScatterColumn(b, psi, n, batch[n*size:(n+1)*size])
	}
	densePlan(b).InverseRawMulRealBatch(batch, nb, h.vloc)
	densePlan(b).ForwardBatch(batch, nb)
	invN3 := complex(1/float64(size), 0)
	for gi := 0; gi < psi.Rows; gi++ {
		kin := complex(b.G2[gi]/2, 0)
		for n := 0; n < nb; n++ {
			out.Set(gi, n, kin*psi.At(gi, n)+invN3*batch[n*size+b.FFTi[gi]])
		}
	}
	h.proj.ApplyAllBand(psi, out)
}

func denseApply(h *Hamiltonian, psi []complex128) []complex128 {
	b := h.Basis
	size := b.Grid.Size()
	work := make([]complex128, size)
	for i, fi := range b.FFTi {
		work[fi] = psi[i]
	}
	densePlan(b).InverseRawMulReal(work, h.vloc)
	densePlan(b).Forward(work)
	out := make([]complex128, len(psi))
	inv := complex(1/float64(size), 0)
	for i, fi := range b.FFTi {
		out[i] = complex(b.G2[i]/2, 0) * psi[i]
		out[i] += work[fi] * inv
	}
	h.proj.ApplyBandByBand(psi, out)
	return out
}

func denseDensity(b *Basis, psi *linalg.CMatrix, occ []float64) []float64 {
	size := b.Grid.Size()
	rho := make([]float64, size)
	work := make([]complex128, size)
	n3 := float64(size)
	scale := n3 * n3 / b.Volume()
	for n := 0; n < psi.Cols; n++ {
		if occ[n] == 0 {
			continue
		}
		denseScatterColumn(b, psi, n, work)
		densePlan(b).Inverse(work)
		f := occ[n] * scale
		for i, v := range work {
			rho[i] += f * (real(v)*real(v) + imag(v)*imag(v))
		}
	}
	return rho
}

// domainShape is one LDC domain's basis: the shapes the end-to-end
// benchmark probes as .g12 (qmd-sic8) and .g10 (qmd-27dom).
type domainShape struct {
	name string
	n    int
	l    float64
	ecut float64
	np   int // plane waves the sphere must hold
}

var (
	domainG12 = domainShape{"g12", 12, atoms.SiCLatticeConstant * 12 / 16, 3, 57}
	domainG10 = domainShape{"g10", 10, atoms.SiCLatticeConstant * 10 / 18, 4, 33}
)

// hamiltonian builds the shape's basis and a two-atom Hamiltonian with
// local potential and projectors on it.
func (c domainShape) hamiltonian(tb testing.TB) *Hamiltonian {
	tb.Helper()
	return c.hamiltonianOn(c.basis(tb))
}

// basis builds the shape's basis and checks its plane-wave count.
func (c domainShape) basis(tb testing.TB) *Basis {
	tb.Helper()
	b, err := NewBasis(grid.New(c.n, c.l), c.ecut)
	if err != nil {
		tb.Fatal(err)
	}
	if b.Np() != c.np {
		tb.Fatalf("%s: %d plane waves, want %d", c.name, b.Np(), c.np)
	}
	return b
}

// hamiltonianOn is hamiltonian on a basis the caller built.
func (c domainShape) hamiltonianOn(b *Basis) *Hamiltonian {
	species := []*atoms.Species{atoms.Silicon, atoms.Carbon}
	pos := []geom.Vec3{{X: 0.2 * c.l, Y: 0.3 * c.l, Z: 0.25 * c.l}, {X: 0.7 * c.l, Y: 0.6 * c.l, Z: 0.8 * c.l}}
	h := NewHamiltonian(b, pseudo.BuildProjectors(b.G, b.G2, b.Volume(), species, pos))
	h.SetLocalPotential(BuildLocalPseudo(b, species, pos))
	return h
}

// sameBits compares with ==, under which ±0 are equal and NaN is not.
func sameBits(a, b complex128) bool { return real(a) == real(b) && imag(a) == imag(b) }

// TestPrunedPathsMatchDense pins applyFFT and densityFFT (the FFT paths
// of ApplyAllInto and DensityInto — called directly, since these small
// bases take the dense ones), Apply and ToRealSpaceBatch to the dense
// reference at a qmd-sic8 domain (12³, 57 waves), a qmd-27dom domain
// (10³, 33 waves) and the fullest sphere NewBasis admits (|m| up to
// N/2−1, so only the Nyquist planes are left to skip). The batch buffer
// and the density grid are poisoned with NaN first: the pruned scatter
// clears sticks only, and nothing else may leak into a result.
func TestPrunedPathsMatchDense(t *testing.T) {
	for _, c := range []domainShape{domainG12, domainG10, {"nyquist", 8, 6, 5, 123}} {
		h := c.hamiltonian(t)
		b := h.Basis
		rng := rand.New(rand.NewSource(21))
		const nb = 6
		psi := linalg.NewCMatrix(b.Np(), nb)
		for i := range psi.Data {
			psi.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		size := b.Grid.Size()
		nan := complex(math.NaN(), math.NaN())
		poison := func() {
			buf := b.GetBatch(nb * size)
			for i := range buf {
				buf[i] = nan
			}
			b.PutBatch(buf)
		}

		poison()
		got := linalg.NewCMatrix(b.Np(), nb)
		h.applyFFT(psi, got)
		want := denseApplyAll(h, psi)
		for i := range want.Data {
			if !sameBits(got.Data[i], want.Data[i]) {
				t.Fatalf("%s: ApplyAllInto differs from dense at %d: %v vs %v", c.name, i, got.Data[i], want.Data[i])
			}
		}

		ws := h.NewWorkspace()
		for i := range ws.grid {
			ws.grid[i] = nan
		}
		col := make([]complex128, b.Np())
		one := make([]complex128, b.Np())
		psi.Col(2, col)
		h.Apply(col, one, ws)
		for i, w := range denseApply(h, col) {
			if !sameBits(one[i], w) {
				t.Fatalf("%s: Apply differs from dense at %d: %v vs %v", c.name, i, one[i], w)
			}
		}

		occ := []float64{2, 2, 0, 1.5, 0, 0.25}
		poison()
		rho := make([]float64, size)
		for i := range rho {
			rho[i] = math.NaN()
		}
		densityFFT(b, psi, occ, rho)
		for i, w := range denseDensity(b, psi, occ) {
			if rho[i] != w {
				t.Fatalf("%s: Density differs from dense at %d: %v vs %v", c.name, i, rho[i], w)
			}
		}

		batch := make([]complex128, nb*size)
		for i := range batch {
			batch[i] = nan
		}
		b.ToRealSpaceBatch(psi, batch)
		for i, w := range denseToRealSpaceBatch(b, psi) {
			if !sameBits(batch[i], w) {
				t.Fatalf("%s: ToRealSpaceBatch differs from dense at %d: %v vs %v", c.name, i, batch[i], w)
			}
		}
	}
}
