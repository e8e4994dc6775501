package pw

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/linalg"
	"ldcdft/internal/pseudo"
)

// sic8 builds an 8-atom SiC Hamiltonian (zincblende-like positions in a
// cubic cell) with the full local + nonlocal parts — the acceptance cell
// for the fused real-space HΨ path.
//
// Its 147-wave basis takes the dense HΨ, so the tests below that are
// about the FFT path call it directly (applyFFTAll).
func sic8(t *testing.T) *Hamiltonian {
	t.Helper()
	b, err := NewBasis(grid.New(16, 8.6), 3.0)
	if err != nil {
		t.Fatal(err)
	}
	L := 8.6
	species := []*atoms.Species{
		atoms.Silicon, atoms.Silicon, atoms.Silicon, atoms.Silicon,
		atoms.Carbon, atoms.Carbon, atoms.Carbon, atoms.Carbon,
	}
	pos := []geom.Vec3{
		{X: 0, Y: 0, Z: 0}, {X: 0, Y: L / 2, Z: L / 2},
		{X: L / 2, Y: 0, Z: L / 2}, {X: L / 2, Y: L / 2, Z: 0},
		{X: L / 4, Y: L / 4, Z: L / 4}, {X: L / 4, Y: 3 * L / 4, Z: 3 * L / 4},
		{X: 3 * L / 4, Y: L / 4, Z: 3 * L / 4}, {X: 3 * L / 4, Y: 3 * L / 4, Z: L / 4},
	}
	proj := pseudo.BuildProjectors(b.G, b.G2, b.Volume(), species, pos)
	h := NewHamiltonian(b, proj)
	h.SetLocalPotential(BuildLocalPseudo(b, species, pos))
	return h
}

// TestFusedApplyEquivalence pins the fused ×V_loc path (multiply inside
// the inverse transform's x-pass) against the separate-pass path on the
// 8-atom SiC cell, for both the single-band Apply and the FFT path of
// ApplyAllInto. The paths differ only in normalization rounding, so the
// bound is 1e-14 relative on every coefficient.
func TestFusedApplyEquivalence(t *testing.T) {
	h := sic8(t)
	defer func(prev bool) { fuseVloc = prev }(fuseVloc)
	rng := rand.New(rand.NewSource(9))
	np := h.Basis.Np()
	nb := 6
	psi := linalg.NewCMatrix(np, nb)
	for i := range psi.Data {
		psi.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}

	fuseVloc = false
	sepAll := applyFFTAll(h, psi)
	sepOne := make([]complex128, np)
	col := make([]complex128, np)
	ws := h.NewWorkspace()
	psi.Col(0, col)
	h.Apply(col, sepOne, ws)

	fuseVloc = true
	fusedAll := applyFFTAll(h, psi)
	fusedOne := make([]complex128, np)
	h.Apply(col, fusedOne, ws)

	// Scale the bound by the column norm: coefficients span orders of
	// magnitude, and the rounding difference is relative to the band.
	for n := 0; n < nb; n++ {
		var norm float64
		for i := 0; i < np; i++ {
			norm += cmplx.Abs(sepAll.At(i, n))
		}
		tol := 1e-14 * norm
		for i := 0; i < np; i++ {
			if d := cmplx.Abs(fusedAll.At(i, n) - sepAll.At(i, n)); d > tol {
				t.Fatalf("band %d: fused ApplyAll diverges at %d: |d|=%g (tol %g)", n, i, d, tol)
			}
		}
	}
	var norm float64
	for i := range sepOne {
		norm += cmplx.Abs(sepOne[i])
	}
	tol := 1e-14 * norm
	for i := range sepOne {
		if d := cmplx.Abs(fusedOne[i] - sepOne[i]); d > tol {
			t.Fatalf("fused Apply diverges at %d: |d|=%g (tol %g)", i, d, tol)
		}
	}
}

// applyFFTAll is ApplyAll by the FFT path, whichever path the basis takes.
func applyFFTAll(h *Hamiltonian, psi *linalg.CMatrix) *linalg.CMatrix {
	out := linalg.NewCMatrix(psi.Rows, psi.Cols)
	h.applyFFT(psi, out)
	return out
}
