package pw

import (
	"math"
	"math/cmplx"
	"slices"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/linalg"
	"ldcdft/internal/par"
	"ldcdft/internal/perf"
	"ldcdft/internal/pseudo"
)

// Hamiltonian is the Kohn–Sham operator of one periodic cell (Eq. (3)):
// H = −½∇² + V_local(r) + V_nl, with V_local collecting the local
// pseudopotential, Hartree, exchange-correlation, and (for LDC domains)
// the density-adaptive boundary potential v_bc.
//
// On a small basis (Basis.vdiff set) H is also held as the dense np×np
// matrix op = ½|G|²δ + V̂[(G_i − G_j) mod N]/N³ + B·D·B†, and HΨ is one
// GEMM. V̂ is the unnormalized DFT of V_local, so op's local part is
// exactly the cyclic convolution that scatter → inverse ×V_local →
// forward → gather computes: the two paths differ by round-off only.
// The projectors and the local potential reach the Hamiltonian only
// through SetProjectors and SetLocalPotential, which rebuild op, so it
// never lags what was installed.
type Hamiltonian struct {
	Basis *Basis
	proj  *pseudo.Projectors
	vloc  []float64 // effective local potential on the FFT grid (N³)

	// Dense-path state, nil on the FFT path: vhat is V̂ on the packed
	// half spectrum, fixed = ½|G|²δ + B·D·B†, op = fixed + V̂/N³.
	vhat      []complex128
	fixed, op *linalg.CMatrix
}

// NewHamiltonian allocates a Hamiltonian with a zero local potential.
func NewHamiltonian(b *Basis, proj *pseudo.Projectors) *Hamiltonian {
	h := &Hamiltonian{Basis: b, vloc: make([]float64, b.Grid.Size())}
	if b.vdiff != nil {
		np := b.Np()
		h.vhat = make([]complex128, b.rplan.HSize())
		h.fixed = linalg.NewCMatrix(np, np)
		h.op = linalg.NewCMatrix(np, np)
	}
	h.SetProjectors(proj)
	return h
}

// Projectors returns the installed nonlocal projectors (nil for none).
func (h *Hamiltonian) Projectors() *pseudo.Projectors { return h.proj }

// SetProjectors installs the nonlocal projectors (nil for none) and, on
// the dense path, rebuilds the kinetic + nonlocal part of the operator.
func (h *Hamiltonian) SetProjectors(proj *pseudo.Projectors) {
	h.proj = proj
	if h.op == nil {
		return
	}
	b := h.Basis
	np := b.Np()
	clear(h.fixed.Data)
	if h.hasProjectors() {
		// (B·D·B†)_ij = Σ_p B_ip D_p conj(B_jp), Hermitian: the lower
		// triangle is summed, the upper one mirrored.
		for i := 0; i < np; i++ {
			bi := proj.B.Row(i)
			for j := 0; j <= i; j++ {
				var s complex128
				for p, bj := range proj.B.Row(j) {
					s += bi[p] * complex(proj.D[p]*real(bj), -proj.D[p]*imag(bj))
				}
				h.fixed.Data[i*np+j] = s
				h.fixed.Data[j*np+i] = cmplx.Conj(s)
			}
		}
		perf.Global.Add(5 * int64(np) * int64(np+1) * int64(proj.NumProjectors()))
	}
	for i, g2 := range b.G2 {
		h.fixed.Data[i*np+i] += complex(g2/2, 0)
	}
	h.assemble()
}

// LocalPotential returns a copy of the installed local potential (len
// N³); writing to it does not reach the operator.
func (h *Hamiltonian) LocalPotential() []float64 { return append([]float64(nil), h.vloc...) }

// SetLocalPotential installs the effective local potential v (len N³)
// and, on the dense path, rebuilds the operator from one real-to-complex
// transform of it.
func (h *Hamiltonian) SetLocalPotential(v []float64) {
	if len(v) != len(h.vloc) {
		panic("pw: local potential size mismatch")
	}
	copy(h.vloc, v)
	if h.op == nil {
		return
	}
	h.Basis.rplan.Forward(h.vloc, h.vhat)
	h.assemble()
}

// assemble sets op = fixed + V̂[(G_i − G_j) mod N]/N³.
func (h *Hamiltonian) assemble() {
	h.Basis.gatherConvolution(h.vhat, h.fixed.Data, h.op.Data)
}

// hasProjectors reports whether a nonlocal part is installed.
func (h *Hamiltonian) hasProjectors() bool {
	return h.proj != nil && h.proj.NumProjectors() > 0
}

// ApplyWorkspace holds the reusable scratch of single-band Hamiltonian
// applications: the N³ FFT grid buffer and the Np coefficient buffer
// that Apply previously allocated on every call. One workspace serves
// one goroutine; create it once per solver loop (CG sweeps, residual
// evaluations, dense-H construction) and thread it through.
type ApplyWorkspace struct {
	grid []complex128 // N³ FFT work buffer
	tmp  []complex128 // Np coefficient buffer
}

// NewWorkspace allocates an ApplyWorkspace sized for this Hamiltonian.
func (h *Hamiltonian) NewWorkspace() *ApplyWorkspace {
	return &ApplyWorkspace{
		grid: make([]complex128, h.Basis.Grid.Size()),
		tmp:  make([]complex128, h.Basis.Np()),
	}
}

// Apply computes out = H ψ for a single coefficient vector, using the
// caller's reusable workspace. It always runs by transforms, whichever
// path ApplyAllInto takes: it is the single-band reference tests hold
// both paths to.
func (h *Hamiltonian) Apply(psi, out []complex128, ws *ApplyWorkspace) {
	defer phApplyH.Start().StopFlops(h.applyAllFlops(1))
	b := h.Basis
	// Kinetic part.
	for i, g2 := range b.G2 {
		out[i] = complex(g2/2, 0) * psi[i]
	}
	// Local potential part via FFT, the ×V_loc multiply (and the N³
	// plane-wave rescale) fused into the inverse transform's x-pass.
	b.Scatter(psi, ws.grid)
	b.sphere.InverseRawMulReal(ws.grid, h.vloc)
	b.FromRealSpace(ws.grid, ws.tmp)
	for i := range out {
		out[i] += ws.tmp[i]
	}
	// Nonlocal part.
	if h.hasProjectors() {
		h.proj.ApplyBandByBand(psi, out)
	}
}

// ApplyAll computes HΨ for the packed wave-function matrix Ψ (Np×Nband)
// into a freshly allocated matrix. See ApplyAllInto.
func (h *Hamiltonian) ApplyAll(psi *linalg.CMatrix) *linalg.CMatrix {
	out := linalg.NewCMatrix(psi.Rows, psi.Cols)
	h.ApplyAllInto(psi, out)
	return out
}

// ApplyAllInto computes HΨ into out (same shape as psi). On the dense
// path that is the one GEMM op·Ψ (§3.4's BLAS3 form taken to the whole
// operator); otherwise applyFFT.
func (h *Hamiltonian) ApplyAllInto(psi, out *linalg.CMatrix) {
	if h.op == nil {
		h.applyFFT(psi, out)
		return
	}
	defer phApplyH.Start().StopFlops(h.applyAllFlops(psi.Cols))
	linalg.CGemm(h.op, psi, out)
}

// applyFFT is HΨ by transforms. The local part runs as two batched 3-D
// FFTs over all bands, one grid per internal/par chunk, and the
// nonlocal part uses the BLAS3 all-band form of Eq. (5) (§3.4). All
// scratch comes from the basis pools; steady-state calls allocate
// nothing beyond the caller's out and the closures handed to par.For.
func (h *Hamiltonian) applyFFT(psi, out *linalg.CMatrix) {
	b := h.Basis
	nb := psi.Cols
	defer phApplyH.Start().StopFlops(h.applyAllFlops(nb))
	size := b.Grid.Size()
	batch := b.GetBatch(nb * size)
	// Local potential: scatter → batched inverse FFT ×Vloc (fused into
	// the transform's x-pass; the raw inverse is exactly the N³-scaled
	// plane-wave convention) → batched forward FFT → gather (fused with
	// the kinetic term below).
	for n := 0; n < nb; n++ {
		b.scatterColumn(psi, n, batch[n*size:(n+1)*size])
	}
	b.sphere.InverseRawMulRealBatch(batch[:nb*size], nb, h.vloc)
	b.sphere.ForwardBatch(batch[:nb*size], nb)
	// out(G,n) = ½G² ψ(G,n) + (1/N³)·(VlocψR)(G,n), assembled row-wise so
	// the matrix accesses stay contiguous.
	invN3 := complex(1/float64(size), 0)
	par.For(psi.Rows, 64, func(lo, hi int) { // a domain's few dozen rows run inline
		for gi := lo; gi < hi; gi++ {
			kin := complex(b.G2[gi]/2, 0)
			fi := b.FFTi[gi]
			prow := psi.Row(gi)
			orow := out.Row(gi)
			for n := range prow {
				orow[n] = kin*prow[n] + invN3*batch[n*size+fi]
			}
		}
	})
	b.PutBatch(batch)
	// Nonlocal part.
	if h.hasProjectors() {
		h.proj.ApplyAllBand(psi, out)
	}
}

// KineticExpectation returns ⟨ψ|−½∇²|ψ⟩ for one coefficient vector.
func (h *Hamiltonian) KineticExpectation(psi []complex128) float64 {
	var e float64
	for i, g2 := range h.Basis.G2 {
		e += g2 / 2 * (real(psi[i])*real(psi[i]) + imag(psi[i])*imag(psi[i]))
	}
	return e
}

// BuildLocalPseudo fills vloc (len N³) with the ionic local potential
// V_ps(r) = (1/Ω) Σ_I Σ_G v_I(G) e^{iG·(r−R_I)} evaluated over the full
// FFT grid, and returns it. Positions are relative to the cell origin.
//
// V_ps is real and V_I(−G) = conj(V_I(G)), so only the packed half
// spectrum (iz ≤ N/2) is assembled — halving the structure-factor trig,
// the dominant cost — and one real-plan inverse reconstructs the grid.
//
// On the Nyquist planes the raw assembly is not Hermitian, so each bin
// there is averaged with its mirror M (Basis.EachHalf) — the real part a
// full-grid complex inverse keeps.
func BuildLocalPseudo(b *Basis, species []*atoms.Species, positions []geom.Vec3) []float64 {
	size := b.Grid.Size()
	vg := b.GetHalfGrid()
	defer b.PutHalfGrid(vg)
	// Group atoms by species so the form factor is computed once per
	// (species, G). Each bin sums its species in first-appearance order:
	// three or more terms do not commute in floating point, so a map's
	// random order would change the bits from call to call.
	var kinds []*atoms.Species
	var pos [][]geom.Vec3
	for ai, sp := range species {
		k := slices.Index(kinds, sp)
		if k < 0 {
			k = len(kinds)
			kinds = append(kinds, sp)
			pos = append(pos, nil)
		}
		pos[k] = append(pos[k], positions[ai])
	}
	invVol := 1 / b.Volume()
	b.EachHalf(func(i int, g, m geom.Vec3, g2 float64) {
		var v complex128
		for k, sp := range kinds {
			ff := pseudo.LocalG(sp, g2) * invVol
			if ff == 0 {
				continue
			}
			// Structure factor Σ_I e^{−iG·R_I}, Hermitian-symmetrized
			// on the Nyquist planes.
			var sre, sim float64
			if m == g {
				for _, r := range pos[k] {
					ph := -(g.X*r.X + g.Y*r.Y + g.Z*r.Z)
					sre += math.Cos(ph)
					sim += math.Sin(ph)
				}
			} else {
				for _, r := range pos[k] {
					ph := -(g.X*r.X + g.Y*r.Y + g.Z*r.Z)
					ph2 := -(m.X*r.X + m.Y*r.Y + m.Z*r.Z)
					sre += (math.Cos(ph) + math.Cos(ph2)) / 2
					sim += (math.Sin(ph) + math.Sin(ph2)) / 2
				}
			}
			v += complex(ff*sre, ff*sim)
		}
		vg[i] = v
	})
	// V(r_j) = Σ_m V_m e^{+2πi mj/N} = N³ · Inverse.
	out := make([]float64, size)
	b.rplan.Inverse(vg, out)
	scale := float64(size)
	for i := range out {
		out[i] *= scale
	}
	return out
}

// HartreeFFT solves ∇²V_H = −4πρ on the cell's FFT grid and returns
// V_H(r). This is the "locally fast" Poisson path used inside domains;
// the global problem uses internal/multigrid instead (GSLF hybrid, §3.2).
// The density is real, so the transforms run on the r2c fast path: the
// 4π/G² kernel is applied on the Hermitian-packed half spectrum and the
// real-plan inverse writes V_H(r) directly — about half the FFT
// arithmetic of the previous widen-to-complex round trip.
func HartreeFFT(b *Basis, rho []float64) []float64 {
	size := b.Grid.Size()
	work := b.GetHalfGrid()
	defer b.PutHalfGrid(work)
	b.rplan.Forward(rho, work)
	for i, g2 := range b.g2Half {
		if g2 == 0 {
			work[i] = 0 // compensating background removes G=0
			continue
		}
		work[i] *= complex(4*math.Pi/g2, 0)
	}
	out := make([]float64, size)
	b.rplan.Inverse(work, out)
	return out
}
