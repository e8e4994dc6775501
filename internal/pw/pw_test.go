package pw

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/linalg"
	"ldcdft/internal/pseudo"
)

func testBasis(t *testing.T, n int, l, ecut float64) *Basis {
	t.Helper()
	b, err := NewBasis(grid.New(n, l), ecut)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBasisSphere(t *testing.T) {
	b := testBasis(t, 16, 10, 2.0)
	if b.Np() < 50 || b.Np() > 500 {
		t.Fatalf("unexpected basis size %d", b.Np())
	}
	// Every member satisfies the cutoff; G=0 present exactly once.
	zero := 0
	for i, g2 := range b.G2 {
		if g2/2 > b.Ecut+1e-12 {
			t.Fatalf("G %d above cutoff", i)
		}
		if g2 == 0 {
			zero++
		}
	}
	if zero != 1 {
		t.Fatalf("expected exactly one G=0, got %d", zero)
	}
	// Closed under inversion: −G in sphere for every G.
	seen := map[[3]int]bool{}
	unit := 2 * math.Pi / b.Grid.L
	for _, g := range b.G {
		seen[[3]int{int(math.Round(g.X / unit)), int(math.Round(g.Y / unit)), int(math.Round(g.Z / unit))}] = true
	}
	for _, g := range b.G {
		k := [3]int{int(math.Round(-g.X / unit)), int(math.Round(-g.Y / unit)), int(math.Round(-g.Z / unit))}
		if !seen[k] {
			t.Fatalf("basis not inversion symmetric at %v", k)
		}
	}
}

func TestBasisErrors(t *testing.T) {
	if _, err := NewBasis(grid.New(4, 10), 100); err == nil {
		t.Fatal("expected Nyquist error for huge cutoff")
	}
	if _, err := NewBasis(grid.New(8, 10), -1); err == nil {
		t.Fatal("expected error for negative cutoff")
	}
}

func TestRealSpaceRoundTrip(t *testing.T) {
	b := testBasis(t, 12, 8, 2.0)
	rng := rand.New(rand.NewSource(1))
	c := make([]complex128, b.Np())
	for i := range c {
		c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	work := make([]complex128, b.Grid.Size())
	b.ToRealSpace(c, work)
	got := make([]complex128, b.Np())
	b.FromRealSpace(work, got)
	for i := range c {
		if cmplx.Abs(c[i]-got[i]) > 1e-10 {
			t.Fatalf("roundtrip mismatch at %d", i)
		}
	}
}

func TestToRealSpaceIsPlaneWaveSum(t *testing.T) {
	b := testBasis(t, 8, 5, 1.5)
	// Single coefficient: ψ̃(r) must be exactly e^{iG·r}.
	c := make([]complex128, b.Np())
	pick := b.Np() / 2
	c[pick] = 1
	work := make([]complex128, b.Grid.Size())
	b.ToRealSpace(c, work)
	g := b.G[pick]
	for ix := 0; ix < b.Grid.N; ix++ {
		for iy := 0; iy < b.Grid.N; iy++ {
			for iz := 0; iz < b.Grid.N; iz++ {
				r := geom.Vec3{X: float64(ix), Y: float64(iy), Z: float64(iz)}.Scale(b.Grid.H())
				want := cmplx.Exp(complex(0, g.Dot(r)))
				got := work[(ix*b.Grid.N+iy)*b.Grid.N+iz]
				if cmplx.Abs(got-want) > 1e-10 {
					t.Fatalf("plane wave mismatch at (%d,%d,%d): %v vs %v", ix, iy, iz, got, want)
				}
			}
		}
	}
}

// buildDenseH constructs the explicit Np×Np Hamiltonian matrix by
// applying H to unit vectors — the brute-force reference for the
// iterative eigensolvers.
func buildDenseH(h *Hamiltonian) *linalg.CMatrix {
	np := h.Basis.Np()
	dense := linalg.NewCMatrix(np, np)
	ws := h.NewWorkspace()
	e := make([]complex128, np)
	out := make([]complex128, np)
	for j := 0; j < np; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		h.Apply(e, out, ws)
		for i := 0; i < np; i++ {
			dense.Set(i, j, out[i])
		}
	}
	return dense
}

// testHamiltonian builds a small Hamiltonian with a nontrivial local
// potential and projectors for two atoms.
func testHamiltonian(t *testing.T, withNl bool) (*Hamiltonian, []*atoms.Species, []geom.Vec3) {
	t.Helper()
	return testHamiltonianOn(testBasis(t, 10, 8, 1.2), withNl)
}

func testHamiltonianOn(b *Basis, withNl bool) (*Hamiltonian, []*atoms.Species, []geom.Vec3) {
	species := []*atoms.Species{atoms.Silicon, atoms.Carbon}
	positions := []geom.Vec3{{X: 2, Y: 2, Z: 2}, {X: 5.5, Y: 5.5, Z: 5.5}}
	var proj *pseudo.Projectors
	if withNl {
		proj = pseudo.BuildProjectors(b.G, b.G2, b.Volume(), species, positions)
	}
	h := NewHamiltonian(b, proj)
	h.SetLocalPotential(BuildLocalPseudo(b, species, positions))
	return h, species, positions
}

func TestHamiltonianHermitian(t *testing.T) {
	h, _, _ := testHamiltonian(t, true)
	rng := rand.New(rand.NewSource(2))
	np := h.Basis.Np()
	ws := h.NewWorkspace()
	x := make([]complex128, np)
	y := make([]complex128, np)
	hx := make([]complex128, np)
	hy := make([]complex128, np)
	for trial := 0; trial < 5; trial++ {
		for i := 0; i < np; i++ {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		h.Apply(x, hx, ws)
		h.Apply(y, hy, ws)
		lhs := linalg.CDot(y, hx) // ⟨y|Hx⟩
		rhs := linalg.CDot(hy, x) // ⟨Hy|x⟩
		if cmplx.Abs(lhs-rhs) > 1e-8*(1+cmplx.Abs(lhs)) {
			t.Fatalf("H not Hermitian: %v vs %v", lhs, rhs)
		}
	}
}

func TestApplyAllMatchesApply(t *testing.T) {
	h, _, _ := testHamiltonian(t, true)
	rng := rand.New(rand.NewSource(3))
	np := h.Basis.Np()
	nb := 5
	psi := linalg.NewCMatrix(np, nb)
	for i := range psi.Data {
		psi.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	all := h.ApplyAll(psi)
	ws := h.NewWorkspace()
	col := make([]complex128, np)
	out := make([]complex128, np)
	for n := 0; n < nb; n++ {
		psi.Col(n, col)
		h.Apply(col, out, ws)
		for i := 0; i < np; i++ {
			if cmplx.Abs(all.At(i, n)-out[i]) > 1e-9 {
				t.Fatalf("band %d: ApplyAll differs from Apply at %d", n, i)
			}
		}
	}
}

func TestFreeElectronEigenvalues(t *testing.T) {
	// V = 0, no projectors → eigenvalues are the sorted ½|G|².
	b := testBasis(t, 8, 6, 1.0)
	h := NewHamiltonian(b, nil)
	rng := rand.New(rand.NewSource(4))
	nb := 4
	psi, err := RandomOrbitals(b, nb, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveAllBand(h, psi, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), b.G2...)
	for i := range want {
		want[i] /= 2
	}
	sortFloats(want)
	for n := 0; n < nb; n++ {
		if math.Abs(res.Eigenvalues[n]-want[n]) > 1e-6 {
			t.Fatalf("band %d: got %g want %g", n, res.Eigenvalues[n], want[n])
		}
	}
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}

func TestSolveAllBandMatchesDense(t *testing.T) {
	h, _, _ := testHamiltonian(t, true)
	dense := buildDenseH(h)
	wDense, _, err := linalg.HermitianEigen(dense)
	if err != nil {
		t.Fatal(err)
	}
	nb := 6
	rng := rand.New(rand.NewSource(5))
	psi, err := RandomOrbitals(h.Basis, nb, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveAllBand(h, psi, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < nb; n++ {
		if math.Abs(res.Eigenvalues[n]-wDense[n]) > 1e-5 {
			t.Fatalf("band %d: iterative %g vs dense %g (residual %g)",
				n, res.Eigenvalues[n], wDense[n], res.MaxResidual)
		}
	}
	// Orthonormality of converged states.
	s := linalg.CGemmCT(psi, psi)
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(s.At(i, j)-want) > 1e-8 {
				t.Fatal("converged states not orthonormal")
			}
		}
	}
}

func TestOrthonormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	psi := linalg.NewCMatrix(50, 6)
	for i := range psi.Data {
		psi.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if err := Orthonormalize(psi); err != nil {
		t.Fatal(err)
	}
	s := linalg.CGemmCT(psi, psi)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(s.At(i, j)-want) > 1e-10 {
				t.Fatalf("overlap (%d,%d) = %v", i, j, s.At(i, j))
			}
		}
	}
}

func TestDensityIntegratesToElectronCount(t *testing.T) {
	h, _, _ := testHamiltonian(t, false)
	b := h.Basis
	rng := rand.New(rand.NewSource(8))
	nb := 5
	psi, err := RandomOrbitals(b, nb, rng)
	if err != nil {
		t.Fatal(err)
	}
	occ := []float64{2, 2, 1.5, 0.5, 0}
	rho := Density(b, psi, occ)
	var total float64
	for _, v := range rho {
		total += v
	}
	total *= b.Grid.DV()
	want := 6.0
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("∫ρ = %g, want %g", total, want)
	}
	// Density is non-negative.
	for i, v := range rho {
		if v < -1e-12 {
			t.Fatalf("negative density %g at %d", v, i)
		}
	}
}

func TestHartreeFFTMatchesAnalytic(t *testing.T) {
	// Single cosine mode: ∇²V = −4πρ with ρ = cos(G·r) → V = 4π/|G|² cos.
	b := testBasis(t, 16, 10, 2.0)
	g := b.Grid
	rho := make([]float64, g.Size())
	unit := 2 * math.Pi / g.L
	for ix := 0; ix < g.N; ix++ {
		for iy := 0; iy < g.N; iy++ {
			for iz := 0; iz < g.N; iz++ {
				p := geom.Vec3{X: float64(ix), Y: float64(iy), Z: float64(iz)}.Scale(g.H())
				rho[(ix*g.N+iy)*g.N+iz] = math.Cos(unit * p.X)
			}
		}
	}
	vh := HartreeFFT(b, rho)
	want := 4 * math.Pi / (unit * unit)
	for ix := 0; ix < g.N; ix++ {
		p := geom.Vec3{X: float64(ix)}.Scale(g.H())
		got := vh[(ix*g.N)*g.N]
		if math.Abs(got-want*math.Cos(unit*p.X)) > 1e-8*want {
			t.Fatalf("Hartree mismatch at ix=%d: %g vs %g", ix, got, want*math.Cos(unit*p.X))
		}
	}
}

func TestLocalForcesFiniteDifference(t *testing.T) {
	b := testBasis(t, 10, 8, 1.2)
	species := []*atoms.Species{atoms.Silicon, atoms.Oxygen}
	base := []geom.Vec3{{X: 2.1, Y: 3.0, Z: 4.2}, {X: 5.0, Y: 4.4, Z: 3.1}}
	// Fixed density: smooth positive blob.
	rho := make([]float64, b.Grid.Size())
	g := b.Grid
	for ix := 0; ix < g.N; ix++ {
		for iy := 0; iy < g.N; iy++ {
			for iz := 0; iz < g.N; iz++ {
				p := geom.Vec3{X: float64(ix), Y: float64(iy), Z: float64(iz)}.Scale(g.H())
				rho[(ix*g.N+iy)*g.N+iz] = 0.1 + 0.05*math.Cos(2*math.Pi*p.X/g.L)*math.Sin(2*math.Pi*p.Y/g.L)
			}
		}
	}
	eLoc := func(pos []geom.Vec3) float64 {
		v := BuildLocalPseudo(b, species, pos)
		var e float64
		for i := range v {
			e += v[i] * rho[i]
		}
		return e * g.DV()
	}
	forces := LocalForces(b, rho, species, base)
	const hstep = 1e-4
	for ai := range base {
		for dim := 0; dim < 3; dim++ {
			plus := clonePositions(base)
			minus := clonePositions(base)
			switch dim {
			case 0:
				plus[ai].X += hstep
				minus[ai].X -= hstep
			case 1:
				plus[ai].Y += hstep
				minus[ai].Y -= hstep
			default:
				plus[ai].Z += hstep
				minus[ai].Z -= hstep
			}
			fd := -(eLoc(plus) - eLoc(minus)) / (2 * hstep)
			var an float64
			switch dim {
			case 0:
				an = forces[ai].X
			case 1:
				an = forces[ai].Y
			default:
				an = forces[ai].Z
			}
			if math.Abs(an-fd) > 1e-6*(1+math.Abs(fd)) {
				t.Fatalf("atom %d dim %d: analytic %g vs FD %g", ai, dim, an, fd)
			}
		}
	}
}

func clonePositions(p []geom.Vec3) []geom.Vec3 {
	return append([]geom.Vec3(nil), p...)
}

func TestIonIonFiniteDifference(t *testing.T) {
	cell := geom.Cell{L: 12}
	species := []*atoms.Species{atoms.Lithium, atoms.Aluminum, atoms.Oxygen}
	base := []geom.Vec3{{X: 3, Y: 3, Z: 3}, {X: 6, Y: 5, Z: 4}, {X: 4, Y: 7, Z: 6}}
	_, forces := IonIon(cell, species, base)
	const hstep = 1e-5
	for ai := range base {
		for dim := 0; dim < 3; dim++ {
			plus := clonePositions(base)
			minus := clonePositions(base)
			switch dim {
			case 0:
				plus[ai].X += hstep
				minus[ai].X -= hstep
			case 1:
				plus[ai].Y += hstep
				minus[ai].Y -= hstep
			default:
				plus[ai].Z += hstep
				minus[ai].Z -= hstep
			}
			ep, _ := IonIon(cell, species, plus)
			em, _ := IonIon(cell, species, minus)
			fd := -(ep - em) / (2 * hstep)
			var an float64
			switch dim {
			case 0:
				an = forces[ai].X
			case 1:
				an = forces[ai].Y
			default:
				an = forces[ai].Z
			}
			if math.Abs(an-fd) > 1e-6*(1+math.Abs(fd)) {
				t.Fatalf("ion-ion atom %d dim %d: analytic %g vs FD %g", ai, dim, an, fd)
			}
		}
	}
}

func TestIonIonNewtonThirdLaw(t *testing.T) {
	cell := geom.Cell{L: 15}
	rng := rand.New(rand.NewSource(9))
	var species []*atoms.Species
	var pos []geom.Vec3
	for i := 0; i < 12; i++ {
		species = append(species, atoms.Hydrogen)
		pos = append(pos, geom.Vec3{X: rng.Float64() * 15, Y: rng.Float64() * 15, Z: rng.Float64() * 15})
	}
	_, forces := IonIon(cell, species, pos)
	var net geom.Vec3
	for _, f := range forces {
		net = net.Add(f)
	}
	if net.Norm() > 1e-10 {
		t.Fatalf("net ion-ion force %g", net.Norm())
	}
}

func TestNonlocalForcesFiniteDifference(t *testing.T) {
	b := testBasis(t, 10, 8, 1.2)
	species := []*atoms.Species{atoms.Aluminum}
	base := []geom.Vec3{{X: 3.7, Y: 4.1, Z: 4.9}}
	rng := rand.New(rand.NewSource(10))
	nb := 3
	psi, err := RandomOrbitals(b, nb, rng)
	if err != nil {
		t.Fatal(err)
	}
	occ := []float64{2, 2, 1}
	eNl := func(pos []geom.Vec3) float64 {
		pr := pseudo.BuildProjectors(b.G, b.G2, b.Volume(), species, pos)
		col := make([]complex128, b.Np())
		var e float64
		for n := 0; n < nb; n++ {
			psi.Col(n, col)
			e += occ[n] * pr.Expectation(col)
		}
		return e
	}
	pr := pseudo.BuildProjectors(b.G, b.G2, b.Volume(), species, base)
	forces := NonlocalForces(b, pr, psi, occ, 1)
	const hstep = 1e-5
	for dim := 0; dim < 3; dim++ {
		plus := clonePositions(base)
		minus := clonePositions(base)
		switch dim {
		case 0:
			plus[0].X += hstep
			minus[0].X -= hstep
		case 1:
			plus[0].Y += hstep
			minus[0].Y -= hstep
		default:
			plus[0].Z += hstep
			minus[0].Z -= hstep
		}
		fd := -(eNl(plus) - eNl(minus)) / (2 * hstep)
		var an float64
		switch dim {
		case 0:
			an = forces[0].X
		case 1:
			an = forces[0].Y
		default:
			an = forces[0].Z
		}
		if math.Abs(an-fd) > 1e-6*(1+math.Abs(fd)) {
			t.Fatalf("nonlocal dim %d: analytic %g vs FD %g", dim, an, fd)
		}
	}
}

// TestSolveAllBandSmallBasis: with fewer than 2·nb plane waves — the
// 10³-point domains at Ecut 3: 27 waves, 14 bands — the expansion block
// [Ψ, R] may not outgrow the space. Capped at np columns it spans all of
// it, so the expanded Rayleigh–Ritz is the exact diagonalisation.
func TestSolveAllBandSmallBasis(t *testing.T) {
	b := testBasis(t, 10, 8, 1.0)
	if b.Np() != 27 {
		t.Fatalf("basis has %d plane waves, the test wants the 27 of |n|² ≤ 3", b.Np())
	}
	h, _, _ := testHamiltonianOn(b, true)
	wDense, _, err := linalg.HermitianEigen(buildDenseH(h))
	if err != nil {
		t.Fatal(err)
	}
	nb := 14
	psi, err := RandomOrbitals(b, nb, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveAllBand(h, psi, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := orthonormalityDefect(psi); d > 1e-10 {
		t.Errorf("‖Ψ†Ψ − I‖ = %.3g on return", d)
	}
	for n := 0; n < nb; n++ {
		if d := math.Abs(res.Eigenvalues[n] - wDense[n]); d > 1e-9 {
			t.Errorf("band %d: %.12g vs dense %.12g (Δ = %.3g)", n, res.Eigenvalues[n], wDense[n], d)
		}
	}
}

// TestExpandSubspaceReusesHPsi: with Ψ orthonormal the residual block
// is orthogonalized against Ψ alone, so V's leading block is Ψ and its HV
// block is the HΨ handed in — which must still make HV = H·V, V
// orthonormal and V†HV Hermitian. Residuals that lie in span Ψ take the
// fallback, which orthonormalizes all of [Ψ, R] and applies H to V.
func TestExpandSubspaceReusesHPsi(t *testing.T) {
	h, _, _ := testHamiltonian(t, true)
	nb := 6
	rng := rand.New(rand.NewSource(13))
	psi, err := RandomOrbitals(h.Basis, nb, rng)
	if err != nil {
		t.Fatal(err)
	}
	np := psi.Rows
	randomCols := func(n int) *linalg.CMatrix {
		r := linalg.NewCMatrix(np, n)
		for i := range r.Data {
			r.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return r
	}
	check := func(name string, r *linalg.CMatrix, reuse bool) {
		nk := r.Cols
		hpsi := h.ApplyAll(psi)
		v, hv, flops, err := expandSubspace(h, psi, hpsi, r)
		if err != nil {
			t.Fatal(err)
		}
		want := 16*int64(np*nb*nk) + orthoFlops(np, nk) + h.applyAllFlops(nk)
		if !reuse {
			want += orthoFlops(np, nb+nk) + h.applyAllFlops(nb)
		}
		if flops != want {
			t.Errorf("%s: modelled %d flops, want %d", name, flops, want)
		}
		if d := orthonormalityDefect(v); d > 1e-12 {
			t.Errorf("%s: ‖V†V − I‖ = %.3g", name, d)
		}
		for i := 0; reuse && i < np; i++ {
			for j := 0; j < nb; j++ {
				if !sameBits(v.At(i, j), psi.At(i, j)) || !sameBits(hv.At(i, j), hpsi.At(i, j)) {
					t.Fatalf("%s: the leading block of V, HV is not Ψ, HΨ", name)
				}
			}
		}
		want2 := h.ApplyAll(v)
		for i := range want2.Data {
			if cmplx.Abs(hv.Data[i]-want2.Data[i]) > 1e-10 {
				t.Fatalf("%s: HV is not H·V (Δ = %.3g)", name, cmplx.Abs(hv.Data[i]-want2.Data[i]))
			}
		}
		hsub := linalg.CGemmCT(v, hv)
		for i := 0; i < hsub.Rows; i++ {
			for j := 0; j < i; j++ {
				if d := cmplx.Abs(hsub.At(i, j) - cmplx.Conj(hsub.At(j, i))); d > 1e-10 {
					t.Fatalf("%s: V†HV has a Hermiticity defect of %.3g", name, d)
				}
			}
		}
	}
	check("random residuals reuse HΨ", randomCols(4), true)
	inSpan := randomCols(2)
	inSpan.SetCol(0, psi.Col(0, nil))
	check("a residual in span Ψ falls back", inSpan, false)

	// And end to end: SolveAllBand started from a skewed Ψ recovers.
	skew := psi.Clone()
	for i := 0; i < skew.Rows; i++ {
		skew.Set(i, 0, skew.At(i, 0)+1e-3*skew.At(i, 1))
	}
	res, err := SolveAllBand(h, skew, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := orthonormalityDefect(skew); d > 1e-10 {
		t.Errorf("‖Ψ†Ψ − I‖ = %.3g after solving from a skewed start", d)
	}
	wDense, _, err := linalg.HermitianEigen(buildDenseH(h))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < nb; n++ {
		if math.Abs(res.Eigenvalues[n]-wDense[n]) > 1e-5 {
			t.Errorf("band %d: %g vs dense %g", n, res.Eigenvalues[n], wDense[n])
		}
	}
}

// TestSolveAllBandReturnsRitzPairs pins the contract that lets the solver
// run one Rayleigh–Ritz per iteration instead of two, on both HΨ
// paths at production iteration counts: the returned Ψ is orthonormal,
// Ψ†HΨ is diagonal with the returned eigenvalues on its diagonal, and
// MaxResidual is max‖Hψ_n − ε_nψ_n‖ of exactly those pairs. A start
// skewed off orthonormal by 1e-3 must come out the same way.
func TestSolveAllBandReturnsRitzPairs(t *testing.T) {
	for _, c := range []struct {
		shape domainShape
		nb    int
		dense bool
	}{{domainG10, 10, true}, {domainG12Ecut6, 14, false}} {
		for _, skewed := range []bool{false, true} {
			name := c.shape.name
			if skewed {
				name += "/skewed"
			}
			t.Run(name, func(t *testing.T) {
				h := c.shape.hamiltonian(t)
				if (h.op != nil) != c.dense {
					t.Fatalf("took the wrong HΨ path (dense = %v)", h.op != nil)
				}
				psi, err := RandomOrbitals(h.Basis, c.nb, rand.New(rand.NewSource(17)))
				if err != nil {
					t.Fatal(err)
				}
				if skewed {
					for i := 0; i < psi.Rows; i++ {
						psi.Set(i, 0, psi.At(i, 0)+1e-3*psi.At(i, 1))
					}
				}
				res, err := SolveAllBand(h, psi, 3, 0)
				if err != nil {
					t.Fatal(err)
				}
				if d := orthonormalityDefect(psi); d > 1e-12 {
					t.Errorf("‖Ψ†Ψ − I‖ = %.3g", d)
				}
				var hmax float64
				for _, v := range buildDenseH(h).Data {
					hmax = math.Max(hmax, cmplx.Abs(v))
				}
				hpsi := h.ApplyAll(psi)
				hsub := linalg.CGemmCT(psi, hpsi)
				for i := 0; i < c.nb; i++ {
					for j := 0; j < c.nb; j++ {
						want := complex128(0)
						if i == j {
							want = complex(res.Eigenvalues[i], 0)
						}
						if d := cmplx.Abs(hsub.At(i, j) - want); d > 1e-10*hmax {
							t.Errorf("(Ψ†HΨ)[%d][%d] = %v, want %v (Δ = %.3g)", i, j, hsub.At(i, j), want, d)
						}
					}
				}
				var maxRes float64
				col := make([]complex128, psi.Rows)
				hcol := make([]complex128, psi.Rows)
				for n := 0; n < c.nb; n++ {
					psi.Col(n, col)
					hpsi.Col(n, hcol)
					linalg.CAxpy(complex(-res.Eigenvalues[n], 0), col, hcol)
					maxRes = math.Max(maxRes, linalg.CNorm2(hcol))
				}
				if maxRes == 0 || math.Abs(res.MaxResidual-maxRes) > 1e-9*maxRes {
					t.Errorf("MaxResidual %.12g, the returned pairs' residual is %.12g", res.MaxResidual, maxRes)
				}
			})
		}
	}
}

// TestSolveAllBandStopsAtTolerance pins what the residual tolerance does
// on both HΨ paths. A tol above every starting residual runs no
// expansion: one HΨ apply, and the Rayleigh–Ritz pairs of the starting
// span come back. A tol between two starting residuals lets only the
// bands above it into the first expansion block, so H is applied to nb
// and then to exactly that many columns. A tol below the 1e-9 floor is
// tol 0, bit for bit.
func TestSolveAllBandStopsAtTolerance(t *testing.T) {
	for _, c := range []struct {
		shape domainShape
		nb    int
		dense bool
	}{{domainG10, 10, true}, {domainG12Ecut6, 14, false}} {
		t.Run(c.shape.name, func(t *testing.T) {
			h := c.shape.hamiltonian(t)
			if (h.op != nil) != c.dense {
				t.Fatalf("took the wrong HΨ path (dense = %v)", h.op != nil)
			}
			start, err := RandomOrbitals(h.Basis, c.nb, rand.New(rand.NewSource(19)))
			if err != nil {
				t.Fatal(err)
			}
			solve := func(iters int, tol float64) (*linalg.CMatrix, EigenResult, int64, int64) {
				t.Helper()
				psi := start.Clone()
				calls, flops := phApplyH.Calls(), phApplyH.Flops()
				res, err := SolveAllBand(h, psi, iters, tol)
				if err != nil {
					t.Fatal(err)
				}
				return psi, res, phApplyH.Calls() - calls, phApplyH.Flops() - flops
			}

			psi, res, applies, _ := solve(4, 1e6)
			if res.Iterations != 0 || applies != 1 {
				t.Fatalf("tol above every residual: %d expansions and %d HΨ applies, want 0 and 1", res.Iterations, applies)
			}
			if res.MaxResidual >= 1e6 {
				t.Fatalf("starting residual %g is not below the tolerance", res.MaxResidual)
			}
			if d := orthonormalityDefect(psi); d > 1e-12 {
				t.Errorf("‖Ψ†Ψ − I‖ = %.3g", d)
			}
			hpsi := h.ApplyAll(psi)
			hsub := linalg.CGemmCT(psi, hpsi)
			norms := make([]float64, c.nb)
			col := make([]complex128, psi.Rows)
			hcol := make([]complex128, psi.Rows)
			for n := range norms {
				for m := 0; m < c.nb; m++ {
					want := complex128(0)
					if m == n {
						want = complex(res.Eigenvalues[n], 0)
					}
					if d := cmplx.Abs(hsub.At(n, m) - want); d > 1e-10*math.Max(1, math.Abs(res.Eigenvalues[n])) {
						t.Errorf("(Ψ†HΨ)[%d][%d] = %v, want %v", n, m, hsub.At(n, m), want)
					}
				}
				psi.Col(n, col)
				hpsi.Col(n, hcol)
				linalg.CAxpy(complex(-res.Eigenvalues[n], 0), col, hcol)
				norms[n] = linalg.CNorm2(hcol)
			}
			if want := slices.Max(norms); math.Abs(res.MaxResidual-want) > 1e-9*want {
				t.Errorf("MaxResidual %.12g, the returned pairs' residual is %.12g", res.MaxResidual, want)
			}

			// The widest gap between two consecutive starting residuals
			// places the tolerance; the bands above it form the block.
			sorted := slices.Clone(norms)
			slices.Sort(sorted)
			k := 1
			for j := 2; j < c.nb; j++ {
				if sorted[j]/sorted[j-1] > sorted[k]/sorted[k-1] {
					k = j
				}
			}
			if sorted[k]/sorted[k-1] < 1.01 {
				t.Fatalf("no gap between the starting residuals %v", sorted)
			}
			tol := math.Sqrt(sorted[k-1] * sorted[k])
			nk := c.nb - k
			_, res, applies, flops := solve(1, tol)
			if want := h.applyAllFlops(c.nb) + h.applyAllFlops(nk); res.Iterations != 1 || applies != 2 || flops != want {
				t.Errorf("tol %.3g: %d expansions, %d HΨ applies of %d flops; want 1, 2 and %d (nv = %d + %d)",
					tol, res.Iterations, applies, flops, want, c.nb, nk)
			}

			// Long enough for bands to converge past the floor and leave.
			psi0, res0, _, _ := solve(60, 0)
			psiTiny, resTiny, _, _ := solve(60, 1e-300)
			for i, v := range psi0.Data {
				u := psiTiny.Data[i]
				if math.Float64bits(real(v)) != math.Float64bits(real(u)) || math.Float64bits(imag(v)) != math.Float64bits(imag(u)) {
					t.Fatalf("tol 1e-300 moved Ψ[%d] from %v to %v", i, v, u)
				}
			}
			for n, w := range res0.Eigenvalues {
				if math.Float64bits(w) != math.Float64bits(resTiny.Eigenvalues[n]) {
					t.Fatalf("tol 1e-300 moved ε[%d] from %.17g to %.17g", n, w, resTiny.Eigenvalues[n])
				}
			}
		})
	}
}
