package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"ldcdft/internal/grid"
	"ldcdft/internal/par"
	"ldcdft/internal/perf"
	"ldcdft/internal/pw"
	"ldcdft/internal/scf"
	"ldcdft/internal/xc"
)

// Phase timers for the four stages of the Fig. 2 global–local loop. Each
// stage has serial boundaries (the loop is a sequence of barriers), so
// the exclusive spans attribute the Global FLOP-counter delta exactly.
var (
	phHartree  = perf.GetPhase("scf/hartree-multigrid")
	phDomains  = perf.GetPhase("scf/domain-solves")
	phMu       = perf.GetPhase("scf/chemical-potential")
	phAssembly = perf.GetPhase("scf/density-assembly")
)

// StepResult carries the diagnostics of one SCF iteration (one pass of
// the global-local loop in Fig. 2).
type StepResult struct {
	Energy          float64
	Mu              float64
	MaxDrho         float64 // max |ρ_out − ρ_in|
	MGCycles        int     // multigrid V-cycles for the global Hartree solve
	BandCount       int     // total Kohn–Sham states across domains
	MaxResidual     float64 // largest eigensolver residual over all domains
	EigenExpansions int     // eigensolver expansions summed over the domains
}

// residualPerDrho sets how far Solve's domain eigensolves refine: to a
// residual of residualPerDrho × MaxDrho of the previous SCF iteration.
// States sharper than the density they are computed from buy nothing
// (DESIGN.md §4(d) has the sweep that chose it).
const residualPerDrho = 0.01

// SolveResult is the outcome of a full SCF solve.
type SolveResult struct {
	Energy     float64
	Mu         float64
	Iterations int
	Converged  bool
	History    []StepResult
}

// ErrNotConverged is returned when MaxSCF iterations do not reach the
// configured tolerances.
var ErrNotConverged = errors.New("core: SCF not converged")

// SCFStep performs one self-consistent-field iteration:
//
//  1. Global: V_H[ρ] by multigrid on the global grid; v_xc[ρ] pointwise.
//  2. Local (domains streamed through the workspace pool): assemble the
//     domain Hamiltonian Eq. (3) — ionic potential of domain atoms +
//     extracted V_H + v_xc + (LDC) boundary potential
//     v_bc = (ρα_prev − ρ)/ξ — refine the local Kohn–Sham states, and
//     record eigenvalues + core weights; wave functions go back to the
//     store before the workspace moves to its next domain.
//  3. Global: chemical potential μ from the core-weighted electron count
//     (Newton–Raphson, Fig. 2 Eq. (c)). μ needs every domain's spectrum,
//     which is why the streamed step is two passes, not one.
//  4. Local → global (second streamed pass): occupations at μ, local
//     densities rebuilt from the stored wave functions, and incremental
//     assembly through the partition of unity into the new global
//     density as each domain completes. Each local density also
//     replaces its domain's ρα history.
//
// Vacuum domains (no atoms in the extended region) never enter either
// pass: they hold no Kohn–Sham states and contribute zero density.
//
// The eigensolver refines every domain's states to round-off (within
// Config.EigenIters). The returned density is NOT yet mixed into the
// engine state, and the histories are the unmixed ρα; Solve handles
// mixing and convergence control.
func (e *Engine) SCFStep() (*grid.Field, StepResult, error) {
	return e.scfStep(0)
}

// scfStep is SCFStep with the domain eigensolves stopping at residual
// tol (pw.SolveAllBand).
func (e *Engine) scfStep(tol float64) (*grid.Field, StepResult, error) {
	var res StepResult

	// (1) Global potentials from the current global density.
	spH := phHartree.StartExclusive()
	vh, mgres, err := e.mg.SolvePoisson(e.Rho)
	if err != nil {
		spH.Stop()
		return nil, res, fmt.Errorf("core: global Hartree: %w", err)
	}
	e.lastVH = vh
	res.MGCycles = mgres.Cycles
	// v_xc[ρ] once per global point; the domains extract it, as they do V_H.
	par.For(len(e.Rho.Data), 4096, e.evalVxc)
	spH.Stop()

	// (2) Domain solves, streamed through the bounded workspace pool.
	spD := phDomains.StartExclusive()
	err = e.streamDomains(func(ws *workspace, st *domainState) error {
		return e.solveDomain(ws, st, vh, tol)
	})
	spD.Stop()
	if err != nil {
		return nil, res, err
	}

	// (3) Global chemical potential from all domain eigenvalues with
	// core weights. States are visited in domain-index order so the
	// Newton–Raphson sums (and the residual maximum) are independent of
	// the streaming schedule.
	spM := phMu.StartExclusive()
	var eig, w []float64
	for _, di := range e.active {
		st := e.states[di]
		eig = append(eig, st.eig...)
		w = append(w, st.coreW...)
		res.BandCount += len(st.eig)
		res.MaxResidual = max(res.MaxResidual, st.maxRes)
		res.EigenExpansions += st.expansions
	}
	mu, err := scf.ChemicalPotential(eig, w, e.Sys.TotalValence(), e.Cfg.KT)
	spM.Stop()
	if err != nil {
		return nil, res, fmt.Errorf("core: chemical potential: %w", err)
	}
	res.Mu = mu
	e.LastMu = mu

	// (4) Occupations, local densities, global assembly — the second
	// streamed pass. AccumulateCore writes each domain's core region, and
	// the partition of unity assigns every global point to exactly one
	// core, so the incremental merges into rhoOut are disjoint and
	// race-free; vacuum cores stay at the zero the fresh field starts
	// with.
	spA := phAssembly.StartExclusive()
	rhoOut := grid.NewField(e.Global)
	err = e.streamDomains(func(ws *workspace, st *domainState) error {
		st.occ = scf.Occupations(st.eig, mu, e.Cfg.KT)
		return e.assembleDomain(ws, st, rhoOut)
	})
	spA.Stop()
	if err != nil {
		return nil, res, err
	}

	res.Energy = e.assembleEnergy(rhoOut, vh)
	e.LastEnergy = res.Energy
	e.SCFIters++

	for i := range rhoOut.Data {
		if d := math.Abs(rhoOut.Data[i] - e.Rho.Data[i]); d > res.MaxDrho {
			res.MaxDrho = d
		}
	}
	return rhoOut, res, nil
}

// evalVxc fills e.vxc with v_xc[ρ] on the global points [lo, hi).
func (e *Engine) evalVxc(lo, hi int) {
	for i := lo; i < hi; i++ {
		e.vxc.Data[i] = xc.Potential(e.Rho.Data[i])
	}
}

// invXi returns 1/ξ (ξ = DefaultXi) in LDC mode and 0 in plain-DC mode
// (where the boundary potential vanishes identically).
func (e *Engine) invXi() float64 {
	if e.Cfg.Mode == ModeLDC {
		return 1 / DefaultXi
	}
	return 0
}

// solveDomain refines one domain's Kohn–Sham states against the current
// global fields inside a borrowed workspace, leaving the refined wave
// functions in the store and the eigenvalues + core weights in the
// domain's compact state.
func (e *Engine) solveDomain(ws *workspace, st *domainState, vh *grid.Field, tol float64) error {
	d := st.da.Domain
	d.ExtractInto(e.Rho, ws.rhoExt)
	d.ExtractInto(vh, ws.vhExt)
	d.ExtractInto(e.vxc, ws.vxcExt)
	if err := ws.retarget(st, e.store, true); err != nil {
		return fmt.Errorf("core: domain %d retarget: %w", st.di, err)
	}
	invXi := e.invXi()
	vps := st.vps
	for i := range ws.veff {
		// v_bc = (ρα_prev − ρ)/ξ; the conversion rounds it before the
		// sum, so no target fuses the product into the last addition.
		vbc := float64((st.rhoPrev.Data[i] - ws.rhoExt.Data[i]) * invXi)
		ws.veff[i] = vps[i] + ws.vhExt.Data[i] + ws.vxcExt.Data[i] + vbc
	}
	ws.eng.SetEffectivePotential(ws.veff)
	eig, err := ws.eng.DiagonalizeTo(tol)
	if err != nil {
		return fmt.Errorf("core: domain solve: %w", err)
	}
	st.eig = eig.Eigenvalues
	st.maxRes = eig.MaxResidual
	st.expansions = eig.Iterations

	// Core weights w_nα = ∫_core |ψ_n|² dV. On a dense basis they come
	// from Ψ in the plane-wave basis through the core operator and the
	// workspace scratch, both built once, so steady-state visits allocate
	// nothing here; the FFT path borrows its batch from the basis pool.
	if st.coreW == nil {
		st.coreW = make([]float64, st.nb)
	}
	ws.core.Weights(ws.eng.Psi, st.coreW, &ws.scratch)

	if err := e.store.save(st.di, ws.eng.PsiData()); err != nil {
		return err
	}
	st.hasPsi = true
	return nil
}

// assembleDomain rebuilds one domain's local density ρα from its stored
// wave functions and fresh occupations, records the boundary-potential
// double-counting term, keeps the fresh ρα as the domain's history (Solve
// mixes it with the history the step consumed), and scatters the core
// region into the global density — the per-domain unit of the
// incremental assembly pass.
func (e *Engine) assembleDomain(ws *workspace, st *domainState, rhoOut *grid.Field) error {
	d := st.da.Domain
	if err := ws.retarget(st, e.store, false); err != nil {
		return fmt.Errorf("core: domain %d reload: %w", st.di, err)
	}
	local := ws.rhoLocal
	pw.DensityInto(ws.eng.Basis, ws.eng.Psi, st.occ, local.Data, &ws.scratch)

	// Boundary-potential double counting ∫_core v_bc ρα (LDC only),
	// evaluated with the v_bc this iteration's solve applied — i.e.
	// against the ρα history BEFORE the fresh ρα replaces it below.
	st.eBC = 0
	if e.Cfg.Mode == ModeLDC {
		d.ExtractInto(e.Rho, ws.rhoExt)
		invXi := e.invXi()
		ldv := local.Grid.DV()
		edge := d.EdgeN()
		for ix := d.BufN; ix < d.BufN+d.CoreN; ix++ {
			for iy := d.BufN; iy < d.BufN+d.CoreN; iy++ {
				base := (ix*edge + iy) * edge
				for iz := d.BufN; iz < d.BufN+d.CoreN; iz++ {
					i := base + iz
					vbc := (st.rhoPrev.Data[i] - ws.rhoExt.Data[i]) * invXi
					st.eBC += vbc * local.Data[i] * ldv
				}
			}
		}
	}

	copy(st.rhoPrev.Data, local.Data)
	d.AccumulateCore(local, rhoOut)
	return nil
}

// assembleEnergy evaluates the LDC total energy with band-energy double-
// counting corrections:
//
//	E = Σ_{α,n} f_n ε_nα w_nα − ½∫V_H ρ + ∫(ε_xc − v_xc)ρ
//	    − Σ_α ∫_core v_bc ρα + E_ii
//
// The band term counts each state's energy weighted by its core fraction
// (the partition of unity applied to the energy density); the integrals
// remove the Hartree and XC double counting; the v_bc term removes the
// boundary potential's contribution to the band energies. The per-domain
// pieces were computed during the streamed passes; here they are reduced
// in domain-index order, independent of the streaming schedule.
func (e *Engine) assembleEnergy(rho *grid.Field, vh *grid.Field) float64 {
	var eBand float64
	for _, di := range e.active {
		st := e.states[di]
		for n, f := range st.occ {
			eBand += f * st.eig[n] * st.coreW[n]
		}
	}
	dv := e.Global.DV()
	var eH, eXC float64
	for i, r := range rho.Data {
		eH += 0.5 * vh.Data[i] * r
		eXC += (xc.EnergyDensity(r) - xc.Potential(r)) * r
	}
	eH *= dv
	eXC *= dv
	var eBC float64
	if e.Cfg.Mode == ModeLDC {
		for _, di := range e.active {
			eBC += e.states[di].eBC
		}
	}
	return eBand - eH + eXC - eBC + e.eII
}

// Solve iterates SCF steps with mixing until the energy and density
// tolerances are met. The fixed-point vector is (ρ, ρα₁ … ρα_M): the
// global density and, in LDC mode, every occupied domain's ρα history
// behind v_bc, and one mixer step moves all of it. The converged
// iteration mixes like every other, so the histories carried on are
// mixed ones, but ρ is then ρ_out. The first step refines the domain
// states to round-off, as SCFStep does; each later one only to
// residualPerDrho × the MaxDrho of the step before. The tolerance and
// the mixer's history start over with every solve, so no state crosses
// an MD step or a resume beyond ρ and the ρα histories.
func (e *Engine) Solve() (*SolveResult, error) {
	return e.SolveCtx(context.Background())
}

// SolveCtx is Solve with cooperative cancellation: the context is checked
// between SCF iterations (the natural consistency boundary — a completed
// iteration leaves the engine's density and diagnostics intact), so a
// cancelled solve returns promptly with the partial SolveResult and an
// error wrapping context.Cause(ctx). No SCF iteration is torn in half.
func (e *Engine) SolveCtx(ctx context.Context) (*SolveResult, error) {
	out := &SolveResult{}
	prevE := math.Inf(1)
	var tol float64
	in, mixOut := e.mixSegments()
	e.mixer.Reset()
	defer e.mixer.Reset() // the mixer's history lives only while the solve runs
	for iter := 1; iter <= e.Cfg.MaxSCF; iter++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("core: SCF cancelled after %d iterations: %w", out.Iterations, context.Cause(ctx))
		}
		rhoOut, step, err := e.scfStep(tol)
		if err != nil {
			return out, err
		}
		out.History = append(out.History, step)
		out.Energy = step.Energy
		out.Mu = step.Mu
		out.Iterations = iter
		// The step left each domain's fresh ρα in its history; the mixer
		// writes the next input over ρ and over the histories it consumed,
		// which then go back in place of the fresh ones.
		mixOut[0] = rhoOut.Data
		e.mixer.Mix(in, mixOut)
		for k, h := range mixOut[1:] {
			copy(h, in[k+1])
		}
		if math.Abs(step.Energy-prevE) < e.Cfg.EnergyTol && step.MaxDrho < e.Cfg.DensityTol {
			out.Converged = true
			e.Rho = rhoOut
			return out, nil
		}
		prevE = step.Energy
		tol = residualPerDrho * step.MaxDrho
	}
	return out, ErrNotConverged
}

// mixSegments lays out the SCF fixed-point vector for the mixer. in holds
// the inputs: the global density and, in LDC mode, a copy of every
// occupied domain's ρα history, which scfStep overwrites with the fresh
// ρα. out holds the outputs: slot 0 is for ρ_out, and the rest are the
// histories themselves. The copies live only as long as the solve.
func (e *Engine) mixSegments() (in, out [][]float64) {
	in, out = [][]float64{e.Rho.Data}, [][]float64{nil}
	if e.Cfg.Mode == ModeLDC {
		for _, di := range e.active {
			h := e.states[di].rhoPrev.Data
			in = append(in, slices.Clone(h))
			out = append(out, h)
		}
	}
	return in, out
}
