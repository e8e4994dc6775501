package pw

import (
	"math"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/linalg"
	"ldcdft/internal/par"
	"ldcdft/internal/pseudo"
)

// NonlocalVariant selects the §3.4 code path for V_nl application.
type NonlocalVariant int

const (
	// NonlocalBLAS3 applies the projectors to all bands at once via
	// matrix-matrix products (Eq. (5)); the production path.
	NonlocalBLAS3 NonlocalVariant = iota
	// NonlocalBLAS2 applies them band by band (Eq. (4)); the original
	// path kept for the ablation benchmark.
	NonlocalBLAS2
)

// Hamiltonian is the Kohn–Sham operator of one periodic cell (Eq. (3)):
// H = −½∇² + V_local(r) + V_nl, with V_local collecting the local
// pseudopotential, Hartree, exchange-correlation, and (for LDC domains)
// the density-adaptive boundary potential v_bc.
type Hamiltonian struct {
	Basis  *Basis
	Vloc   []float64 // effective local potential on the FFT grid (N³)
	Proj   *pseudo.Projectors
	NlMode NonlocalVariant
}

// NewHamiltonian allocates a Hamiltonian with a zero local potential.
func NewHamiltonian(b *Basis, proj *pseudo.Projectors) *Hamiltonian {
	return &Hamiltonian{Basis: b, Vloc: make([]float64, b.Grid.Size()), Proj: proj}
}

// fuseVloc selects the fused real-space path: the ×V_loc multiply (and
// the N³ plane-wave rescale) happen inside the inverse transform's final
// x-pass (fft.InverseRawMulReal) instead of as separate grid traversals.
// The fused and separate paths agree to ~1e-14 relative — not bitwise,
// because the raw inverse folds the three per-axis normalizations into
// nothing rather than rounding each — which TestFusedApplyEquivalence
// pins. Kept as a toggle for that test and the ablation benchmark.
var fuseVloc = true

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
// caller's reusable workspace.
func (h *Hamiltonian) Apply(psi, out []complex128, ws *ApplyWorkspace) {
	defer phApplyH.Start().StopFlops(h.applyAllFlops(1))
	b := h.Basis
	// Kinetic part.
	for i, g2 := range b.G2 {
		out[i] = complex(g2/2, 0) * psi[i]
	}
	// Local potential part via FFT.
	if fuseVloc {
		b.Scatter(psi, ws.grid)
		b.sphere.InverseRawMulReal(ws.grid, h.Vloc)
	} else {
		b.ToRealSpace(psi, ws.grid)
		for i, v := range h.Vloc {
			ws.grid[i] *= complex(v, 0)
		}
	}
	b.FromRealSpace(ws.grid, ws.tmp)
	for i := range out {
		out[i] += ws.tmp[i]
	}
	// Nonlocal part.
	if h.Proj != nil && h.Proj.NumProjectors() > 0 {
		h.Proj.ApplyBandByBand(psi, out)
	}
}

// ApplyAll computes HΨ for the packed wave-function matrix Ψ (Np×Nband)
// into a freshly allocated matrix. See ApplyAllInto.
func (h *Hamiltonian) ApplyAll(psi *linalg.CMatrix) *linalg.CMatrix {
	out := linalg.NewCMatrix(psi.Rows, psi.Cols)
	h.ApplyAllInto(psi, out)
	return out
}

// ApplyAllInto computes HΨ into out (same shape as psi). The local part
// runs as two batched 3-D FFTs over all bands, one grid per internal/par
// chunk, and the nonlocal part uses the BLAS3 all-band form unless NlMode
// selects the band-by-band path (§3.4 ablation). All scratch comes from
// the basis pools; steady-state calls allocate nothing beyond the
// caller's out and the closures handed to par.For.
func (h *Hamiltonian) ApplyAllInto(psi, out *linalg.CMatrix) {
	b := h.Basis
	nb := psi.Cols
	defer phApplyH.Start().StopFlops(h.applyAllFlops(nb))
	size := b.Grid.Size()
	batch := b.GetBatch(nb * size)
	// Local potential: scatter → batched inverse FFT ×Vloc (fused into
	// the transform's x-pass; the raw inverse is exactly the N³-scaled
	// plane-wave convention) → batched forward FFT → gather (fused with
	// the kinetic term below).
	if fuseVloc {
		for n := 0; n < nb; n++ {
			b.scatterColumn(psi, n, batch[n*size:(n+1)*size])
		}
		b.sphere.InverseRawMulRealBatch(batch[:nb*size], nb, h.Vloc)
	} else {
		b.ToRealSpaceBatch(psi, batch)
		par.For(nb, 1, func(n, _ int) {
			g := batch[n*size : (n+1)*size]
			for i, v := range h.Vloc {
				g[i] *= complex(v, 0)
			}
		})
	}
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
	if h.Proj != nil && h.Proj.NumProjectors() > 0 {
		if h.NlMode == NonlocalBLAS2 {
			col := make([]complex128, psi.Rows)
			res := make([]complex128, psi.Rows)
			for n := 0; n < nb; n++ {
				psi.Col(n, col)
				out.Col(n, res)
				h.Proj.ApplyBandByBand(col, res)
				out.SetCol(n, res)
			}
		} else {
			h.Proj.ApplyAllBand(psi, out)
		}
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
// One wrinkle: at a Nyquist index (axis index N/2, even N) the folded
// frequency keeps its sign under m → −m, so the raw assembly is not
// Hermitian there. The previous full-grid path implicitly symmetrized
// those bins by dropping the imaginary part after the complex inverse;
// the half-spectrum assembly reproduces that exactly by averaging each
// Nyquist-plane bin with its conjugate mirror (the same G with the
// Nyquist components sign-flipped).
func BuildLocalPseudo(b *Basis, species []*atoms.Species, positions []geom.Vec3) []float64 {
	n := b.Grid.N
	hz := n/2 + 1
	size := b.Grid.Size()
	vg := b.GetHalfGrid()
	defer b.PutHalfGrid(vg)
	for i := range vg {
		vg[i] = 0
	}
	ax := b.axisG
	g2h := b.g2Half
	// Group atoms by species so the form factor is computed once per
	// (species, G); the folded frequencies and |G|² come from the basis
	// lookups shared with the kinetic and Hartree kernels.
	bySpecies := map[*atoms.Species][]geom.Vec3{}
	for ai, sp := range species {
		bySpecies[sp] = append(bySpecies[sp], positions[ai])
	}
	invVol := 1 / b.Volume()
	for sp, pos := range bySpecies {
		idx := 0
		for ix := 0; ix < n; ix++ {
			gx := ax[ix]
			mx := gx
			if 2*ix == n {
				mx = -gx
			}
			for iy := 0; iy < n; iy++ {
				gy := ax[iy]
				my := gy
				if 2*iy == n {
					my = -gy
				}
				for iz := 0; iz < hz; iz++ {
					gz := ax[iz]
					mz := gz
					if 2*iz == n {
						mz = -gz
					}
					ff := pseudo.LocalG(sp, g2h[idx]) * invVol
					if ff == 0 {
						idx++
						continue
					}
					// Structure factor Σ_I e^{−iG·R_I}, Hermitian-symmetrized
					// on the Nyquist planes.
					var sre, sim float64
					if mx == gx && my == gy && mz == gz {
						for _, r := range pos {
							ph := -(gx*r.X + gy*r.Y + gz*r.Z)
							sre += math.Cos(ph)
							sim += math.Sin(ph)
						}
					} else {
						for _, r := range pos {
							ph := -(gx*r.X + gy*r.Y + gz*r.Z)
							ph2 := -(mx*r.X + my*r.Y + mz*r.Z)
							sre += (math.Cos(ph) + math.Cos(ph2)) / 2
							sim += (math.Sin(ph) + math.Sin(ph2)) / 2
						}
					}
					vg[idx] += complex(ff*sre, ff*sim)
					idx++
				}
			}
		}
	}
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
