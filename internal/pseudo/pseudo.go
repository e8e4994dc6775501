// Package pseudo implements the model pseudopotentials of the Kohn–Sham
// Hamiltonian: a local screened-Coulomb part evaluated in reciprocal
// space, and separable nonlocal projectors applied all-band (BLAS3,
// Eq. (5) of the paper; what the solver runs) or band by band (BLAS2,
// Eq. (4); the reference and the other leg of pw's BenchmarkNonlocal) —
// the algebraic transformation of §3.4.
package pseudo

import (
	"math"
	"sync"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/linalg"
	"ldcdft/internal/perf"
)

// LocalG returns the local pseudopotential form factor v(G²) for species
// sp: v(G) = −4πZ·exp(−G²σ²/2)/(G²+κ²). The κ screening keeps the G→0
// limit finite (the divergent Coulomb average is absorbed, with the
// compensating background, into the ion-ion term).
func LocalG(sp *atoms.Species, g2 float64) float64 {
	return -4 * math.Pi * sp.Valence * math.Exp(-g2*sp.PsSigma*sp.PsSigma/2) /
		(g2 + sp.PsKappa*sp.PsKappa)
}

// ProjectorG returns the radial part of nonlocal projector channel c for
// species sp at |G|² = g2: f_c(G) = (G²σ²)^c · exp(−G²σ²/2). Channel 0 is
// s-like; higher channels add radial nodes standing in for higher angular
// momenta in this spherically-averaged model.
func ProjectorG(sp *atoms.Species, c int, g2 float64) float64 {
	s2 := sp.PsNlSigma * sp.PsNlSigma
	x := g2 * s2
	v := math.Exp(-x / 2)
	for i := 0; i < c; i++ {
		v *= x
	}
	return v
}

// Projectors is the packed nonlocal-projector matrix for one domain:
// B is Np × Nproj (Eq. (5)'s B̃), D the per-projector strengths (the
// diagonal D̃), and Atom/Channel identify each column.
type Projectors struct {
	B       *linalg.CMatrix // Np × Nproj
	D       []float64       // Nproj strengths (Hartree)
	Atom    []int           // owning atom index per projector
	Channel []int

	scratch sync.Pool // *applyScratch, reused across ApplyAllBand calls
}

// applyScratch holds the two intermediates of the BLAS3 projector
// application: proj = D·(B†Ψ) (Nproj×Nband) and add = B·proj (Np×Nband).
// Backing slices grow to the largest band count seen and are reused.
type applyScratch struct {
	proj, add linalg.CMatrix
}

// reshape resizes m to rows×cols, reusing its backing slice when large
// enough.
func reshape(m *linalg.CMatrix, rows, cols int) {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]complex128, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
}

// NumProjectors returns the number of projector columns.
func (p *Projectors) NumProjectors() int { return len(p.D) }

// BuildProjectors assembles the projector matrix for the given atoms over
// the reciprocal basis {G}: column (I, c) is β_{c,I}(G) = N_c f_c(G)
// e^{−iG·R_I}, normalized to unit norm over the basis.
func BuildProjectors(gvecs []geom.Vec3, g2 []float64, volume float64,
	species []*atoms.Species, positions []geom.Vec3) *Projectors {
	np := len(gvecs)
	var cols int
	for _, sp := range species {
		cols += len(sp.PsNlE)
	}
	p := &Projectors{B: linalg.NewCMatrix(np, cols)}
	if cols == 0 {
		return p
	}
	col := 0
	for ai, sp := range species {
		for c := range sp.PsNlE {
			// Radial part and normalization.
			radial := make([]float64, np)
			var norm float64
			for gi, gg := range g2 {
				radial[gi] = ProjectorG(sp, c, gg)
				norm += radial[gi] * radial[gi]
			}
			scale := 0.0
			if norm > 0 {
				scale = 1 / math.Sqrt(norm)
			}
			r := positions[ai]
			for gi, gv := range gvecs {
				phase := -(gv.X*r.X + gv.Y*r.Y + gv.Z*r.Z)
				p.B.Set(gi, col, complex(radial[gi]*scale*math.Cos(phase),
					radial[gi]*scale*math.Sin(phase)))
			}
			p.D = append(p.D, sp.PsNlE[c])
			p.Atom = append(p.Atom, ai)
			p.Channel = append(p.Channel, c)
			col++
		}
	}
	_ = volume
	return p
}

// ApplyBandByBand computes out += V_nl ψ for a single band using BLAS2-
// style operations (Eq. (4)): one projection per projector, then one
// accumulation per projector. It is the reference for ApplyAllBand, the
// per-band Hamiltonian.Apply's nonlocal term and the BLAS2 leg of the
// §3.4 ablation.
func (p *Projectors) ApplyBandByBand(psi, out []complex128) {
	np := p.B.Rows
	for j := 0; j < p.NumProjectors(); j++ {
		// c_j = ⟨β_j | ψ⟩
		var c complex128
		for gi := 0; gi < np; gi++ {
			b := p.B.At(gi, j)
			c += complex(real(b), -imag(b)) * psi[gi]
		}
		c *= complex(p.D[j], 0)
		for gi := 0; gi < np; gi++ {
			out[gi] += p.B.At(gi, j) * c
		}
	}
	perf.Global.Add(16 * int64(np) * int64(p.NumProjectors()))
}

// ApplyAllBand computes out += V_nl Ψ for all bands at once using BLAS3
// operations (Eq. (5)): P = B†Ψ, scale rows of P by D, out += B P.
func (p *Projectors) ApplyAllBand(psi, out *linalg.CMatrix) {
	if p.NumProjectors() == 0 {
		return
	}
	s, _ := p.scratch.Get().(*applyScratch)
	if s == nil {
		s = &applyScratch{}
	}
	reshape(&s.proj, p.NumProjectors(), psi.Cols)
	linalg.CGemmCTInto(p.B, psi, &s.proj) // proj = B†Ψ, Nproj × Nband
	for j := 0; j < s.proj.Rows; j++ {
		d := complex(p.D[j], 0)
		row := s.proj.Row(j)
		for k := range row {
			row[k] *= d
		}
	}
	reshape(&s.add, out.Rows, out.Cols)
	linalg.CGemm(p.B, &s.proj, &s.add)
	for i, v := range s.add.Data {
		out.Data[i] += v
	}
	p.scratch.Put(s)
}

// Expectation returns ⟨ψ|V_nl|ψ⟩ for one band (real by Hermiticity).
func (p *Projectors) Expectation(psi []complex128) float64 {
	var e float64
	np := p.B.Rows
	for j := 0; j < p.NumProjectors(); j++ {
		var c complex128
		for gi := 0; gi < np; gi++ {
			b := p.B.At(gi, j)
			c += complex(real(b), -imag(b)) * psi[gi]
		}
		e += p.D[j] * (real(c)*real(c) + imag(c)*imag(c))
	}
	return e
}
