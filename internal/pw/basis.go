// Package pw implements the plane-wave Kohn–Sham solver that LDC-DFT
// runs inside every divide-and-conquer domain ("fast intra-domain
// computation", §3.2), and that doubles — applied to the whole cell — as
// the conventional O(N³) DFT baseline used for verification (§5.5) and
// the crossover study (§5.2).
//
// Conventions: Hartree atomic units; wave functions are expanded as
// ψ(r) = Ω^{-1/2} Σ_G c_G e^{iG·r} with coefficient vectors normalized to
// Σ|c_G|² = 1; the reciprocal basis is the sphere ½|G|² ≤ Ecut on the
// FFT grid of the periodic cell.
package pw

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"ldcdft/internal/fft"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/linalg"
	"ldcdft/internal/perf"
)

// Basis is the plane-wave basis of one periodic cell.
type Basis struct {
	Grid grid.Grid // FFT grid (N³ points over cell of side L)
	Ecut float64   // kinetic-energy cutoff (Hartree)

	G    []geom.Vec3 // G-vectors in the sphere
	G2   []float64   // |G|²
	FFTi []int       // FFT-grid linear index of each G

	rplan *fft.RPlan3
	// The sphere fills a small corner of the grid (57 of 12³ points in an
	// LDC domain), so every wave-function transform goes through the
	// plan's pruned form for the support FFTi: it skips the line
	// transforms that see only zeros or feed no coefficient, bit-for-bit
	// equal to the dense plan (fft.Support3).
	sphere *fft.Support3

	// Folded reciprocal-space lookups shared by every grid-space kernel
	// (Hartree 4π/G², pseudopotential form factors, forces): axisG[i] =
	// fold(i)·2π/L per FFT index, g2Half = |G|² per point of the
	// Hermitian-packed half spectrum (iz ≤ N/2) the real-field transforms
	// produce.
	axisG  []float64
	g2Half []float64

	// vdiff is set on a basis small enough for the dense HΨ (see
	// NewBasis): for every pair (i, j) of plane waves, row-major, the
	// half-spectrum index of (m_i − m_j) mod N, or −1 − the index of its
	// mirror −(m_i − m_j) mod N where that difference lies past the packed
	// z half (iz > N/2), whose coefficient is the conjugate of the mirror's.
	vdiff []int32

	halfPool  sync.Pool // *[]complex128, one N²·(N/2+1) half-spectrum grid each
	batchPool sync.Pool // *[]complex128, grown to the largest batch seen
}

// NewBasis enumerates the plane waves with ½|G|² ≤ ecut on the FFT grid
// g. It returns an error if the sphere is empty or if the grid is too
// coarse to hold the sphere (Nyquist violation).
func NewBasis(g grid.Grid, ecut float64) (*Basis, error) {
	if ecut <= 0 {
		return nil, fmt.Errorf("pw: non-positive cutoff %g", ecut)
	}
	b := &Basis{
		Grid:  g,
		Ecut:  ecut,
		rplan: fft.CachedR3(g.N, g.N, g.N),
	}
	unit := 2 * math.Pi / g.L
	gmax := math.Sqrt(2 * ecut)
	mmax := int(gmax/unit) + 1
	if mmax > g.N/2 {
		return nil, fmt.Errorf("pw: cutoff %g Ha needs |m| ≤ %d but grid has N/2 = %d",
			ecut, mmax, g.N/2)
	}
	n := g.N
	b.axisG = make([]float64, n)
	for i := 0; i < n; i++ {
		b.axisG[i] = float64(fold(i, n)) * unit
	}
	g2Grid := make([]float64, g.Size()) // |G|² per FFT grid point
	hz := n/2 + 1
	b.g2Half = make([]float64, n*n*hz)
	idx, hidx := 0, 0
	for ix := 0; ix < n; ix++ {
		gx := b.axisG[ix]
		for iy := 0; iy < n; iy++ {
			gy := b.axisG[iy]
			gxy := gx*gx + gy*gy
			for iz := 0; iz < n; iz++ {
				gz := b.axisG[iz]
				g2Grid[idx] = gxy + gz*gz
				idx++
				// Packed half spectrum: iz ≤ N/2 only (axisG is
				// non-negative there, so the values coincide).
				if iz < hz {
					b.g2Half[hidx] = gxy + gz*gz
					hidx++
				}
			}
		}
	}
	idx = 0
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				if g2 := g2Grid[idx]; g2/2 <= ecut {
					b.G = append(b.G, geom.Vec3{X: b.axisG[ix], Y: b.axisG[iy], Z: b.axisG[iz]})
					b.G2 = append(b.G2, g2)
					b.FFTi = append(b.FFTi, idx)
				}
				idx++
			}
		}
	}
	if len(b.G) == 0 {
		return nil, fmt.Errorf("pw: empty basis for cutoff %g", ecut)
	}
	b.sphere = fft.Cached3(n, n, n).NewSupport(b.FFTi)
	if np := int64(b.Np()); 8*np*np < b.fftBandFlops() {
		b.vdiff = differenceTable(b.FFTi, n)
	}
	b.halfPool.New = func() any {
		s := make([]complex128, b.rplan.HSize())
		return &s
	}
	return b, nil
}

// fftBandFlops is the modelled cost of the local potential on one band
// by the FFT path: the two sphere-pruned transforms, the ×V_loc multiply
// and the kinetic scale. A dense np×np operator costs 8·np² per band;
// NewBasis picks it wherever that is less.
func (b *Basis) fftBandFlops() int64 {
	return b.sphere.InverseFlops() + b.sphere.ForwardFlops() + 8*int64(b.Grid.Size()) + 8*int64(b.Np())
}

// differenceTable builds Basis.vdiff for the plane waves at the FFT-grid
// indices fftI of an n³ grid.
func differenceTable(fftI []int, n int) []int32 {
	hz := n/2 + 1
	np := len(fftI)
	tab := make([]int32, np*np)
	for i, fi := range fftI {
		for j, fj := range fftI {
			kx := (fi/(n*n) - fj/(n*n) + n) % n
			ky := (fi/n%n - fj/n%n + n) % n
			kz := (fi%n - fj%n + n) % n
			if kz < hz {
				tab[i*np+j] = int32((kx*n+ky)*hz + kz)
				continue
			}
			tab[i*np+j] = int32(-1 - (((n-kx)%n*n+(n-ky)%n)*hz + n - kz))
		}
	}
	return tab
}

// gatherConvolution sets dst = base + F̂[(m_i − m_j) mod N]/N³ (row-major
// np×np; base nil reads as zero) for the real field F whose packed half
// spectrum is fhat, gathered through vdiff with mirrored entries
// conjugated. dst is then the matrix of multiplication by F on the
// basis: the cyclic convolution that scatter → inverse ×F → forward →
// gather computes by transforms.
func (b *Basis) gatherConvolution(fhat, base, dst []complex128) {
	inv := 1 / float64(b.Grid.Size())
	for k, d := range b.vdiff {
		var v complex128
		if d >= 0 {
			v = fhat[d]
		} else {
			v = cmplx.Conj(fhat[-1-d])
		}
		v = complex(real(v)*inv, imag(v)*inv)
		if base != nil {
			v += base[k]
		}
		dst[k] = v
	}
	perf.Global.Add(4 * int64(len(dst)))
}

// fold maps FFT index to signed frequency: 0..N/2 → 0..N/2, rest negative.
func fold(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}

// Np returns the number of plane waves (the paper's Np ~ 10⁴; laptop-scale
// runs here use 10²–10³).
func (b *Basis) Np() int { return len(b.G) }

// Volume returns the cell volume Ω.
func (b *Basis) Volume() float64 { return b.Grid.L * b.Grid.L * b.Grid.L }

// AxisG returns the folded reciprocal frequency fold(i)·2π/L for each
// FFT index along one axis (all axes are equal on the cubic grid).
func (b *Basis) AxisG() []float64 { return b.axisG }

// G2Half returns |G|² at every point of the Hermitian-packed half
// spectrum (grid order, iz = 0..N/2) — the lookup the real-field
// kernels (Hartree, local pseudopotential, forces, density guess) use
// alongside the r2c transforms. Callers must not modify it.
func (b *Basis) G2Half() []float64 { return b.g2Half }

// GetHalfGrid returns a pooled N²·(N/2+1) complex half-spectrum buffer.
// Contents are unspecified; release with PutHalfGrid when done.
func (b *Basis) GetHalfGrid() []complex128 {
	return *b.halfPool.Get().(*[]complex128)
}

// PutHalfGrid returns a buffer obtained from GetHalfGrid to the pool.
func (b *Basis) PutHalfGrid(buf []complex128) {
	b.halfPool.Put(&buf)
}

// RealInverse reconstructs a real field from its packed half spectrum,
// including the 1/N³ normalization. src is clobbered.
func (b *Basis) RealInverse(src []complex128, dst []float64) {
	b.rplan.Inverse(src, dst)
}

// GetBatch returns a pooled complex buffer of at least n elements
// (sliced to n), growing the pooled backing store as needed. Contents
// are unspecified; release with PutBatch.
func (b *Basis) GetBatch(n int) []complex128 {
	bp, _ := b.batchPool.Get().(*[]complex128)
	if bp == nil || cap(*bp) < n {
		s := make([]complex128, n)
		return s
	}
	return (*bp)[:n]
}

// PutBatch returns a buffer obtained from GetBatch to the pool.
func (b *Basis) PutBatch(buf []complex128) {
	buf = buf[:cap(buf)]
	b.batchPool.Put(&buf)
}

// Scatter places coefficient vector c (len Np) onto the FFT grid array
// (len N³) as input for the inverse transforms below. Only the z-sticks
// through the sphere — all those transforms read — are zeroed first; the
// rest of gridArr keeps whatever it held.
func (b *Basis) Scatter(c []complex128, gridArr []complex128) {
	b.sphere.ClearSticks(gridArr)
	for i, fi := range b.FFTi {
		gridArr[fi] = c[i]
	}
}

// scatterColumn is Scatter for column n of psi, without materializing
// the column.
func (b *Basis) scatterColumn(psi *linalg.CMatrix, n int, dst []complex128) {
	b.sphere.ClearSticks(dst)
	nc := psi.Cols
	for gi, fi := range b.FFTi {
		dst[fi] = psi.Data[gi*nc+n]
	}
}

// ToRealSpace converts coefficients c to wave-function values ψ̃(r_j) =
// Σ_G c_G e^{iG·r_j} on the FFT grid (the Ω^{-1/2} normalization is NOT
// included). The work buffer must have length N³ and is overwritten.
func (b *Basis) ToRealSpace(c []complex128, work []complex128) {
	b.Scatter(c, work)
	// Inverse DFT includes 1/N³; our target is Σ c e^{+2πi m·j/N}, which
	// is N³ × Inverse. Rescale in place.
	b.sphere.Inverse(work)
	n3 := complex(float64(b.Grid.Size()), 0)
	for i := range work {
		work[i] *= n3
	}
}

// ToRealSpaceBatch converts every column of psi to real-space values in
// one batched 3-D transform: band n's ψ̃(r) fills
// batch[n*N³:(n+1)*N³]. batch must have length ≥ Cols·N³.
func (b *Basis) ToRealSpaceBatch(psi *linalg.CMatrix, batch []complex128) {
	size := b.Grid.Size()
	nb := psi.Cols
	if len(batch) < nb*size {
		panic("pw: batch buffer too small")
	}
	batch = batch[:nb*size]
	for n := 0; n < nb; n++ {
		b.scatterColumn(psi, n, batch[n*size:(n+1)*size])
	}
	b.sphere.InverseBatch(batch, nb)
	n3 := complex(float64(size), 0)
	for i := range batch {
		batch[i] *= n3
	}
}

// FromRealSpace projects grid values f(r_j) onto sphere coefficients:
// c_G = (1/N³) Σ_j f(r_j) e^{−iG·r_j}. The input buffer is destroyed.
func (b *Basis) FromRealSpace(work []complex128, c []complex128) {
	b.sphere.Forward(work)
	inv := complex(1/float64(b.Grid.Size()), 0)
	for i, fi := range b.FFTi {
		c[i] = work[fi] * inv
	}
}
