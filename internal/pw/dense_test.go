package pw

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/linalg"
	"ldcdft/internal/perf"
)

// domainG12Ecut6 is a qmd-sic8 domain at twice the cutoff: the smallest
// crossover basis that takes the FFT path.
var domainG12Ecut6 = domainShape{"g12-ecut6", 12, atoms.SiCLatticeConstant * 12 / 16, 6, 171}

// The bases of the HΨ crossover (DESIGN.md, "Dense HΨ"), smallest first
// within each side: the LDC domains of qmd-27dom and qmd-sic8, the whole
// SiC(1) cell at the conventional-solve probe's and at qmd-27dom's
// settings, then a qmd-sic8 domain at twice the cutoff, a stream64
// domain and the whole SiC(2) cell. nb is the band count the crossover
// was measured at; dense is the path NewBasis must pick.
var (
	sicA        = atoms.SiCLatticeConstant
	wholeSiC1   = domainShape{"sic1-g16", 16, sicA, 3, 147}
	oddNoNyq    = domainShape{"odd-g15", 15, sicA * 15 / 16, 3, 123}
	crossoverHΨ = []struct {
		shape domainShape
		nb    int
		dense bool
	}{
		{domainG10, 10, true},
		{domainG12, 14, true},
		{wholeSiC1, 24, true},
		{domainShape{"sic1-g18", 18, sicA, 4, 203}, 24, true},
		{domainG12Ecut6, 14, false},
		{domainShape{"stream64", 10, 2 * sicA * 10 / 24, 6, 251}, 14, false},
		{domainShape{"sic2-g24", 24, 2 * sicA, 3, 1141}, 100, false},
	}
)

// TestDensePathSelection pins the path NewBasis picks at each crossover
// basis: dense while 8·np² is below the FFT path's modelled per-band
// cost, which the measured times bear out on both sides.
func TestDensePathSelection(t *testing.T) {
	for _, c := range crossoverHΨ {
		b := c.shape.basis(t)
		if dense := b.vdiff != nil; dense != c.dense {
			np := int64(b.Np())
			t.Errorf("%s (np %d): dense = %v, want %v (8·np² = %d, FFT path %d per band)",
				c.shape.name, np, dense, c.dense, 8*np*np, b.fftBandFlops())
		}
		if h := c.shape.hamiltonian(t); (h.op != nil) != c.dense {
			t.Errorf("%s: the Hamiltonian does not take the path its basis picked", c.shape.name)
		}
	}
}

// randomPotential is a real potential of unit-normal noise: every
// difference G_i − G_j of the operator reads a different value.
func randomPotential(b *Basis, rng *rand.Rand) []float64 {
	v := make([]float64, b.Grid.Size())
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randomBlock(np, nb int, rng *rand.Rand) *linalg.CMatrix {
	psi := linalg.NewCMatrix(np, nb)
	for i := range psi.Data {
		psi.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return psi
}

// maxRelDiff is the largest band-wise max|got − want| / max|want|.
func maxRelDiff(got, want *linalg.CMatrix) float64 {
	var worst float64
	for n := 0; n < want.Cols; n++ {
		var d, scale float64
		for i := 0; i < want.Rows; i++ {
			d = math.Max(d, cmplx.Abs(got.At(i, n)-want.At(i, n)))
			scale = math.Max(scale, cmplx.Abs(want.At(i, n)))
		}
		worst = math.Max(worst, d/scale)
	}
	return worst
}

// TestDenseOperatorMatchesFFT: the dense operator is the cyclic
// convolution the FFT path computes, so on every dense basis — the two
// domain shapes, the whole SiC(1) cell, and an odd grid with no Nyquist
// plane — the two agree to round-off, with projectors and a random
// potential.
func TestDenseOperatorMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, c := range []domainShape{domainG10, domainG12, wholeSiC1, oddNoNyq} {
		h := c.hamiltonian(t)
		if h.op == nil {
			t.Fatalf("%s: took the FFT path", c.name)
		}
		h.SetLocalPotential(randomPotential(h.Basis, rng))
		psi := randomBlock(h.Basis.Np(), 6, rng)
		want := applyFFTAll(h, psi)
		got := h.ApplyAll(psi)
		if d := maxRelDiff(got, want); d > 1e-14 {
			t.Errorf("%s: dense HΨ differs from the FFT path by %.3g relative", c.name, d)
		}
	}
}

// TestDenseOperatorFollowsInstalls: HΨ follows every potential and
// projector install. A cached operator that was not rebuilt would still
// answer with the first potential, and with the projectors removed.
func TestDenseOperatorFollowsInstalls(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	h := domainG12.hamiltonian(t)
	psi := randomBlock(h.Basis.Np(), 4, rng)
	first := h.ApplyAll(psi)
	h.SetLocalPotential(randomPotential(h.Basis, rng))
	second := h.ApplyAll(psi)
	if d := maxRelDiff(second, applyFFTAll(h, psi)); d > 1e-14 {
		t.Errorf("after a second potential: dense HΨ is %.3g off the FFT path", d)
	}
	if d := maxRelDiff(second, first); d < 1e-3 {
		t.Errorf("HΨ moved by only %.3g relative with a new potential", d)
	}
	h.SetProjectors(nil)
	local := h.ApplyAll(psi)
	if d := maxRelDiff(local, applyFFTAll(h, psi)); d > 1e-14 {
		t.Errorf("after removing the projectors: dense HΨ is %.3g off the FFT path", d)
	}
	if d := maxRelDiff(local, second); d < 1e-3 {
		t.Errorf("HΨ moved by only %.3g relative without the projectors", d)
	}
}

// TestDenseFlopsMatchGlobal: the modelled counts the phases report are
// what the dense kernels add to perf.Global — 8·np² per band for an
// apply, one real transform plus 4·np² for a potential install.
func TestDenseFlopsMatchGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	h := domainG12.hamiltonian(t)
	np := int64(h.Basis.Np())
	v := randomPotential(h.Basis, rng)
	before := perf.Global.Total()
	h.SetLocalPotential(v)
	if got, want := perf.Global.Total()-before, h.Basis.rplan.Flops()+4*np*np; got != want {
		t.Errorf("potential install counted %d flops, model %d", got, want)
	}
	psi := randomBlock(int(np), 5, rng)
	out := linalg.NewCMatrix(psi.Rows, psi.Cols)
	before = perf.Global.Total()
	h.ApplyAllInto(psi, out)
	if got, want := perf.Global.Total()-before, h.applyAllFlops(psi.Cols); got != want || want != 8*np*np*5 {
		t.Errorf("dense apply counted %d flops, model %d, want 8·np²·nb = %d", got, want, 8*np*np*5)
	}
}

// normalizedBlock is randomBlock with every column scaled to Σ|c|² = 1,
// so a band integrates to one electron per unit occupation.
func normalizedBlock(np, nb int, rng *rand.Rand) *linalg.CMatrix {
	psi := randomBlock(np, nb, rng)
	for n := 0; n < nb; n++ {
		var s float64
		for i := 0; i < np; i++ {
			v := psi.At(i, n)
			s += real(v)*real(v) + imag(v)*imag(v)
		}
		inv := complex(1/math.Sqrt(s), 0)
		for i := 0; i < np; i++ {
			psi.Set(i, n, psi.At(i, n)*inv)
		}
	}
	return psi
}

// maxRelDiffReal is max|got − want| / max|want|.
func maxRelDiffReal(got, want []float64) float64 {
	var d, scale float64
	for i, w := range want {
		d = math.Max(d, math.Abs(got[i]-w))
		scale = math.Max(scale, math.Abs(w))
	}
	return d / scale
}

// TestDenseDensityMatchesFFT: the density from the density matrix is the
// cyclic convolution the band-by-band transforms compute, so on every
// dense basis of TestDenseOperatorMatchesFFT the two agree to round-off
// with random orbitals and occupations that include zeros, and ρ
// integrates to Σ f_n. A scatter that also adds the pairs past the packed
// half, or that drops one member of a pair on the kz = 0 plane, is off by
// O(1).
func TestDenseDensityMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	occ := []float64{2, 0, 1.25, 2, 0, 0.375, 1e-3}
	var want float64
	for _, f := range occ {
		want += f
	}
	for _, c := range []domainShape{domainG10, domainG12, wholeSiC1, oddNoNyq} {
		b := c.basis(t)
		if b.vdiff == nil {
			t.Fatalf("%s: took the FFT path", c.name)
		}
		psi := normalizedBlock(b.Np(), len(occ), rng)
		size := b.Grid.Size()
		ref := make([]float64, size)
		densityFFT(b, psi, occ, ref)
		var s Scratch
		got := make([]float64, size)
		for round := 0; round < 2; round++ { // the second reuses the scratch
			DensityInto(b, psi, occ, got, &s)
			if d := maxRelDiffReal(got, ref); d > 1e-13 {
				t.Errorf("%s round %d: dense density differs from the FFT path by %.3g relative", c.name, round, d)
			}
		}
		var total float64
		for _, r := range got {
			total += r
		}
		if total *= b.Grid.DV(); math.Abs(total-want) > 1e-12*want {
			t.Errorf("%s: ∫ρ = %.15g, want Σf = %.15g", c.name, total, want)
		}
	}
}

// TestDenseCoreWeightsMatchFFT: w_n = Re⟨ψ_n|C|ψ_n⟩ with the dense
// indicator operator equals ∫_box |ψ_n|² summed on the grid, for a cube
// off the origin (so every phase of χ̂ counts) on every dense basis; and
// the whole grid as the box gives each normalized band weight 1.
func TestDenseCoreWeightsMatchFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, c := range []domainShape{domainG10, domainG12, wholeSiC1, oddNoNyq} {
		b := c.basis(t)
		n := b.Grid.N
		box := NewBox(b, n/5, n/2)
		if box.op == nil {
			t.Fatalf("%s: the box took the FFT path", c.name)
		}
		fftBox := *box
		fftBox.op = nil
		const nb = 6
		psi := normalizedBlock(b.Np(), nb, rng)
		var s Scratch
		got, ref := make([]float64, nb), make([]float64, nb)
		box.Weights(psi, got, &s)
		fftBox.Weights(psi, ref, &s)
		if d := maxRelDiffReal(got, ref); d > 1e-13 {
			t.Errorf("%s: dense core weights differ from the FFT path by %.3g relative: %v vs %v", c.name, d, got, ref)
		}
		for k, w := range got {
			if w <= 0 || w >= 1 {
				t.Errorf("%s: band %d has weight %v in a proper sub-box", c.name, k, w)
			}
		}
		NewBox(b, 0, n).Weights(psi, got, &s)
		for k, w := range got {
			if math.Abs(w-1) > 1e-13 {
				t.Errorf("%s: band %d weighs %.15g on the whole grid, want 1", c.name, k, w)
			}
		}
	}
}
