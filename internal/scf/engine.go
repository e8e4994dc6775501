package scf

import (
	"math"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/linalg"
	"ldcdft/internal/perf"
	"ldcdft/internal/pw"
	"ldcdft/internal/xc"
)

// Eigensolver spans run concurrently across domain solvers, so the phase
// total is CPU-seconds; FLOPs come from the solver's own modelled count
// (EigenResult.Flops) rather than a Global-counter delta.
var phEigensolver = perf.GetPhase("scf/eigensolver")

// Engine bundles the plane-wave machinery of one periodic cell: basis,
// Hamiltonian, ionic potential, projectors, and the current wave
// functions. The O(N³) baseline uses one Engine for the whole cell; the
// LDC-DFT core uses one Engine per DC domain.
type Engine struct {
	Basis     *pw.Basis
	Ham       *pw.Hamiltonian
	Psi       *linalg.CMatrix
	Species   []*atoms.Species
	Positions []geom.Vec3 // relative to this cell's origin
	Vps       []float64   // ionic local potential on the FFT grid

	// EigenIters is the most eigensolver iterations per SCF cycle (the
	// paper's weak-scaling runs use 3, §5.1).
	EigenIters int

	// psiBuf is the reusable wave-function backing store Psi is sliced
	// from (see RetargetBands).
	psiBuf []complex128
}

// NewEngine builds an Engine for nb bands over a cell of side cellL with
// an FFT grid of gridN³ points and cutoff ecut, targeted at the given
// atoms and seeded with the random guess of seed: a workspace
// (NewWorkspaceEngine) after Retarget and SeedRandom. Positions must
// already be relative to the cell origin.
func NewEngine(cellL float64, gridN int, ecut float64, nb int,
	species []*atoms.Species, positions []geom.Vec3, seed int64) (*Engine, error) {
	e, err := NewWorkspaceEngine(cellL, gridN, ecut, nb)
	if err == nil {
		err = e.Retarget(species, positions, nb)
	}
	if err == nil {
		err = e.SeedRandom(seed)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// SetEffectivePotential installs the full effective local potential
// (ionic + Hartree + XC + optional boundary potential) for the next
// diagonalization.
func (e *Engine) SetEffectivePotential(v []float64) {
	e.Ham.SetLocalPotential(v)
}

// EffectivePotentialFrom builds Veff = Vps + V_H[ρ] + v_xc[ρ] with the
// cell-local FFT Hartree solver and installs it. Used by the O(N³)
// baseline; the DC core supplies globally-informed potentials instead.
func (e *Engine) EffectivePotentialFrom(rho []float64) {
	vh := pw.HartreeFFT(e.Basis, rho)
	v := make([]float64, len(rho))
	for i := range v {
		v[i] = e.Vps[i] + vh[i] + xc.Potential(rho[i])
	}
	e.SetEffectivePotential(v)
}

// Diagonalize refines the wave functions toward the lowest eigenstates
// of the current Hamiltonian, to round-off within EigenIters iterations,
// and returns the eigenvalues.
func (e *Engine) Diagonalize() (pw.EigenResult, error) {
	return e.DiagonalizeTo(0)
}

// DiagonalizeTo is Diagonalize that stops refining a band once its
// residual is below tol (pw.SolveAllBand).
func (e *Engine) DiagonalizeTo(tol float64) (pw.EigenResult, error) {
	sp := phEigensolver.Start()
	res, err := pw.SolveAllBand(e.Ham, e.Psi, e.EigenIters, tol)
	sp.StopFlops(res.Flops)
	return res, err
}

// Density returns the electron density for the given occupations.
func (e *Engine) Density(occ []float64) []float64 {
	return pw.Density(e.Basis, e.Psi, occ)
}

// BandKineticNonlocal returns Σ_n f_n (⟨T⟩_n + ⟨V_nl⟩_n), the band parts
// of the total energy that are not double-counted through the density.
func (e *Engine) BandKineticNonlocal(occ []float64) float64 {
	col := make([]complex128, e.Psi.Rows)
	var sum float64
	for n := 0; n < e.Psi.Cols; n++ {
		f := occ[n]
		if f == 0 {
			continue
		}
		e.Psi.Col(n, col)
		sum += f * e.Ham.KineticExpectation(col)
		if p := e.Ham.Projectors(); p != nil {
			sum += f * p.Expectation(col)
		}
	}
	return sum
}

// InitialDensity returns the superposition of atomic Gaussian densities
// normalized to the total valence charge — the SCF starting guess. The
// guess ρ(G) has ρ(−G) = conj(ρ(G)), so only the Hermitian-packed half
// spectrum is assembled (halving the per-atom trig) and one r2c-plan
// inverse reconstructs the real grid.
func (e *Engine) InitialDensity() []float64 {
	b := e.Basis
	size := b.Grid.Size()
	work := b.GetHalfGrid()
	defer b.PutHalfGrid(work)
	invVol := 1 / b.Volume()
	b.EachHalf(func(i int, g, m geom.Vec3, g2 float64) {
		var sre, sim float64
		for ai, sp := range e.Species {
			sigma := 1.5 * sp.PsSigma
			amp := sp.Valence * math.Exp(-g2*sigma*sigma/2) * invVol
			r := e.Positions[ai]
			ph := -(g.X*r.X + g.Y*r.Y + g.Z*r.Z)
			if m == g {
				sre += amp * math.Cos(ph)
				sim += amp * math.Sin(ph)
				continue
			}
			// Nyquist-plane bin: Hermitian-symmetrize against the
			// mirror frequency, matching the real part the previous
			// full-grid complex inverse kept.
			ph2 := -(m.X*r.X + m.Y*r.Y + m.Z*r.Z)
			sre += amp * (math.Cos(ph) + math.Cos(ph2)) / 2
			sim += amp * (math.Sin(ph) + math.Sin(ph2)) / 2
		}
		work[i] = complex(sre, sim)
	})
	rho := make([]float64, size)
	b.RealInverse(work, rho)
	scale := float64(size)
	for i := range rho {
		rho[i] *= scale
		if rho[i] < 0 {
			rho[i] = 0
		}
	}
	// Renormalize to the exact electron count.
	var total float64
	dv := b.Grid.DV()
	for _, v := range rho {
		total += v * dv
	}
	want := totalValence(e.Species)
	if total > 0 {
		f := want / total
		for i := range rho {
			rho[i] *= f
		}
	}
	return rho
}

func totalValence(species []*atoms.Species) float64 {
	var z float64
	for _, sp := range species {
		z += sp.Valence
	}
	return z
}
