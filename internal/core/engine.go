// Package core implements the paper's primary contribution: the lean
// divide-and-conquer density functional theory (LDC-DFT) engine with its
// globally scalable and locally fast (GSLF) solver — local plane-wave
// Kohn–Sham solves in every DC domain (FFT-based, §3.2 point 1) coupled
// through a global density, a global multigrid Hartree potential (§3.2
// point 2), and a global chemical potential (Fig. 2).
//
// Two modes are provided: ModeLDC applies the density-adaptive boundary
// potential v_bc = (ρα − ρ)/ξ of Eq. (2); ModeDC omits it, reproducing
// the original DC-DFT algorithm used as the baseline in Fig. 7.
//
// Memory model (the weak-scaling §4 regime): domains are STREAMED
// through a bounded pool of reusable solver workspaces rather than each
// owning a resident plane-wave engine. The heavy machinery — basis, FFT
// plans, eigensolver scratch, band storage — exists only Workers times;
// per-domain persistent state is the compact domainState (assigned
// atoms, the ρα boundary-potential history, the ionic local potential,
// eigenvalues/occupations and a wave-function handle), so total memory is
//
//	O(workers × localGrid × bands  +  domains × localGrid)
//
// instead of O(domains × localGrid × bands), and the domain count can
// grow 100–1000× past the worker count. Wave functions persist between
// SCF iterations through a pluggable store — in memory by default, or
// spilled to disk (Config.SpillDir) to keep RAM strictly O(workers).
package core

import (
	"fmt"
	"math"
	"slices"

	"ldcdft/internal/atoms"
	"ldcdft/internal/bsd"
	"ldcdft/internal/dc"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/multigrid"
	"ldcdft/internal/pw"
	"ldcdft/internal/scf"
)

// Mode selects the domain boundary treatment.
type Mode int

const (
	// ModeLDC is lean divide-and-conquer: periodic local boundary
	// conditions augmented by the linear-response boundary potential.
	ModeLDC Mode = iota
	// ModeDC is the original divide-and-conquer baseline (no boundary
	// potential).
	ModeDC
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeDC {
		return "DC"
	}
	return "LDC"
}

// DefaultXi is the parameter ξ of Eq. (2), 0.333 a.u., fitted in Ref. [24]
// and adopted by the paper; every LDC run uses it.
const DefaultXi = 0.333

// Config controls an LDC-DFT calculation. Its JSON form is the "config" of
// a qmdd job spec; Mode and SpillDir stay off the wire, so a job cannot
// choose the DC baseline or a directory on the daemon's disk.
type Config struct {
	GridN          int     `json:"grid_n"`           // global real-space grid points per axis
	DomainsPerAxis int     `json:"domains_per_axis"` // DC domains per axis (total domains = cube)
	BufN           int     `json:"buf_n"`            // buffer thickness in grid points
	Ecut           float64 `json:"ecut"`             // plane-wave cutoff for domain solves (Hartree)
	Mode           Mode    `json:"-"`

	KT         float64 `json:"kt,omitempty"`          // electronic temperature (Hartree); default 0.02
	MixAlpha   float64 `json:"mix_alpha,omitempty"`   // mixing of ρ and (LDC) the ρα histories; default 0.35
	Anderson   bool    `json:"anderson,omitempty"`    // Anderson two-point acceleration
	MaxSCF     int     `json:"max_scf,omitempty"`     // default 60
	EnergyTol  float64 `json:"energy_tol,omitempty"`  // default 1e-6 Ha
	DensityTol float64 `json:"density_tol,omitempty"` // default 1e-5
	EigenIters int     `json:"eigen_iters,omitempty"` // at most this many eigensolver iterations per SCF cycle; default 3
	Seed       int64   `json:"seed,omitempty"`

	// Workers caps the number of concurrent domain solves (0 = GOMAXPROCS)
	// — and thereby the number of resident solver workspaces: all domains
	// stream through min(Workers, occupied domains) workspaces. On the
	// real machine each domain owns an MPI communicator (§3.3); here each
	// domain visit is one task on the bounded worker pool.
	Workers int `json:"workers,omitempty"`

	// SpillDir, when non-empty, spills per-domain wave functions to files
	// under this directory between SCF iterations instead of holding them
	// in memory, bounding resident memory by the worker count even in the
	// wave-function store. The round trip is bit-exact, so a spilled run
	// reproduces an in-memory run bitwise. Call Engine.Close to remove
	// the spill files. Empty = keep wave functions in memory (one compact
	// coefficient slice per occupied domain).
	SpillDir string `json:"-"`
}

func (c *Config) setDefaults() {
	if c.KT == 0 {
		c.KT = 0.02
	}
	if c.MixAlpha == 0 {
		c.MixAlpha = 0.35
	}
	if c.MaxSCF == 0 {
		c.MaxSCF = 60
	}
	if c.EnergyTol == 0 {
		c.EnergyTol = 1e-6
	}
	if c.DensityTol == 0 {
		c.DensityTol = 1e-5
	}
	if c.EigenIters == 0 {
		c.EigenIters = 3
	}
}

// domainState is the compact persistent state of one DC domain — the
// ONLY state that scales with the domain count. The heavy solver
// machinery lives in the bounded workspace pool; wave functions live in
// the engine's store (memory or disk) keyed by the domain index.
type domainState struct {
	da   *dc.DomainAtoms
	di   int   // domain index (store key, deterministic seed)
	nb   int   // Kohn–Sham bands; 0 = vacuum fast path (no solver at all)
	seed int64 // per-domain eigensolver seed

	rhoPrev *grid.Field // mixed ρα history driving the LDC boundary potential
	vps     []float64   // ionic local potential, built on the first solve visit

	// Results of the last SCF iteration.
	eig        []float64 // eigenvalues
	maxRes     float64   // largest eigensolver residual ‖Hψ_n − ε_nψ_n‖
	expansions int       // eigensolver expansions the solve ran
	coreW      []float64 // per-band core weights w_nα = ∫_Ω0α |ψ_n|²
	occ        []float64 // occupations at the last global μ
	eBC        float64   // ∫_core v_bc ρα of the last assembly (LDC double counting)
	hasPsi     bool      // wave functions present in the store
}

// Engine is a complete LDC-DFT calculation on one atomic configuration.
type Engine struct {
	Cfg     Config
	Sys     *atoms.System
	Global  grid.Grid
	Domains []grid.Domain

	states []*domainState
	active []int        // indices of occupied (non-vacuum) domains, ascending
	ws     []*workspace // bounded solver workspace pool: min(Workers, occupied)
	store  psiStore     // per-domain wave functions (memory or disk spill)
	pool   bsd.Pool

	mg    *multigrid.Solver
	mixer scf.Mixer

	// Ion-ion energy and forces of the configuration, which an engine
	// never moves.
	eII float64
	fII []geom.Vec3

	Rho *grid.Field // current global density
	vxc *grid.Field // v_xc[Rho] of the current SCF step

	// Diagnostics of the last SCF step.
	LastEnergy float64
	LastMu     float64
}

// NewEngine validates the configuration, decomposes the cell, assigns
// atoms to domains, and builds the bounded workspace pool the domains
// will stream through. Vacuum domains (no atoms in the extended region)
// get no solver state at all — they contribute zero density and zero
// Kohn–Sham states.
func NewEngine(sys *atoms.System, cfg Config) (*Engine, error) {
	cfg.setDefaults()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if cfg.GridN <= 0 || cfg.DomainsPerAxis <= 0 {
		return nil, fmt.Errorf("core: invalid grid %d / domains %d", cfg.GridN, cfg.DomainsPerAxis)
	}
	g := grid.New(cfg.GridN, sys.Cell.L)
	doms, err := grid.Decompose(g, cfg.DomainsPerAxis, cfg.BufN)
	if err != nil {
		return nil, err
	}
	domAtoms, err := dc.AssignAtoms(sys, doms)
	if err != nil {
		return nil, err
	}
	mg, err := multigrid.NewSolver(g, multigrid.Options{Tol: 1e-8})
	if err != nil {
		return nil, err
	}
	e := &Engine{Cfg: cfg, Sys: sys, Global: g, Domains: doms, mg: mg,
		pool: bsd.Pool{Workers: cfg.Workers}, vxc: grid.NewField(g)}
	sp := make([]*atoms.Species, len(sys.Atoms))
	pos := make([]geom.Vec3, len(sys.Atoms))
	for i, a := range sys.Atoms {
		sp[i], pos[i] = a.Species, sys.Cell.Wrap(a.Position)
	}
	e.eII, e.fII = pw.IonIon(sys.Cell, sp, pos)
	if cfg.Anderson {
		e.mixer = &scf.AndersonMixer{Alpha: cfg.MixAlpha}
	} else {
		e.mixer = &scf.LinearMixer{Alpha: cfg.MixAlpha}
	}
	maxNb := 0
	for di, da := range domAtoms {
		st := &domainState{da: da, di: di, seed: cfg.Seed + int64(di)*7919 + 1}
		if len(da.Species) > 0 {
			st.nb = scf.Bands(da.Valence())
			e.active = append(e.active, di)
			if st.nb > maxNb {
				maxNb = st.nb
			}
		}
		e.states = append(e.states, st)
	}
	if len(e.active) > 0 {
		nw := e.pool.NumWorkers(len(e.active))
		for w := 0; w < nw; w++ {
			ws, err := newWorkspace(doms[0], cfg, maxNb)
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("core: workspace %d: %w", w, err)
			}
			e.ws = append(e.ws, ws)
		}
		if np := e.ws[0].eng.Basis.Np(); maxNb > np {
			e.Close()
			return nil, fmt.Errorf("core: %d bands exceed the %d-plane-wave domain basis (raise Ecut or the domain size)", maxNb, np)
		}
		e.store, err = newPsiStore(cfg.SpillDir, len(doms))
		if err != nil {
			return nil, err
		}
	}
	e.Rho = e.initialDensity()
	for _, di := range e.active {
		st := e.states[di]
		st.rhoPrev = st.da.Domain.Extract(e.Rho)
	}
	return e, nil
}

// Close releases the engine's wave-function store (removing spill files
// when Config.SpillDir is in use). The engine must not solve or compute
// forces afterwards. Close is idempotent and nil-safe on a zero store.
func (e *Engine) Close() error {
	if e.store == nil {
		return nil
	}
	err := e.store.close()
	e.store = nil
	return err
}

// NumDomains returns the domain count.
func (e *Engine) NumDomains() int { return len(e.states) }

// OccupiedDomains returns the number of domains holding atoms — the
// domains that actually stream through the workspace pool; the rest are
// vacuum and cost nothing.
func (e *Engine) OccupiedDomains() int { return len(e.active) }

// ResidentWorkspaces returns the size of the bounded solver workspace
// pool — min(Cfg.Workers, occupied domains). Heavy solver memory scales
// with this number, never with the domain count.
func (e *Engine) ResidentWorkspaces() int { return len(e.ws) }

// SetDensity installs a starting global density (e.g. the converged
// density of the previous MD step — the warm start that keeps the
// per-step SCF count low in production QMD). The per-domain boundary-
// potential histories are re-seeded from it; SetHistories, called after,
// replaces those seeds with the histories the previous step carried.
func (e *Engine) SetDensity(rho *grid.Field) error {
	if rho.Grid != e.Global {
		return fmt.Errorf("core: density grid mismatch")
	}
	copy(e.Rho.Data, rho.Data)
	for _, di := range e.active {
		st := e.states[di]
		st.da.Domain.ExtractInto(e.Rho, st.rhoPrev)
	}
	return nil
}

// ExportDensity returns a copy of the current global density, decoupled
// from the engine's working buffers — the counterpart of SetDensity for
// checkpointing and cross-step warm starts.
func (e *Engine) ExportDensity() *grid.Field {
	return e.Rho.Clone()
}

// ExportHistories returns a copy of every domain's mixed ρα history —
// the state behind the boundary potential v_bc = (ρα − ρ)/ξ — indexed by
// domain index, each on the domain's local grid; a vacuum domain's entry
// is nil. Handed to the next MD step's engine (SetHistories), it spares
// that step relaxing every history again from the re-seed ρ.
func (e *Engine) ExportHistories() [][]float64 {
	out := make([][]float64, len(e.states))
	for _, di := range e.active {
		out[di] = slices.Clone(e.states[di].rhoPrev.Data)
	}
	return out
}

// SetHistories installs carried ρα histories (see ExportHistories). Call
// it after SetDensity, which re-seeds every history from ρ: an occupied
// domain whose entry is nil keeps that seed — the first evaluation of a
// trajectory, or a domain that was vacuum when the histories were
// exported. Entries of domains that are vacuum now are ignored. A
// history count other than the domain count, or an entry that is not the
// domain's local grid, is an error and installs nothing.
func (e *Engine) SetHistories(h [][]float64) error {
	if len(h) != len(e.states) {
		return fmt.Errorf("core: %d boundary-potential histories for %d domains", len(h), len(e.states))
	}
	for _, di := range e.active {
		if want := len(e.states[di].rhoPrev.Data); h[di] != nil && len(h[di]) != want {
			return fmt.Errorf("core: domain %d history has %d points, want %d", di, len(h[di]), want)
		}
	}
	for _, di := range e.active {
		if h[di] != nil {
			copy(e.states[di].rhoPrev.Data, h[di])
		}
	}
	return nil
}

// DegreesOfFreedom returns the total number of wave-function and charge-
// density values — the quantity the paper's abstract counts (39.8
// trillion for the 50.3M-atom run). It is computed from the domain
// geometry and band counts alone, so it works whether or not any solver
// workspace is resident (and regardless of which domain currently
// occupies one).
func (e *Engine) DegreesOfFreedom() int64 {
	var dof int64
	for _, st := range e.states {
		if st.nb == 0 {
			continue
		}
		dof += int64(st.da.Domain.LocalGrid().Size()) * int64(st.nb+1)
	}
	dof += int64(e.Global.Size())
	return dof
}

// initialDensity superposes atomic Gaussians on the global grid and
// normalizes to the total valence charge.
func (e *Engine) initialDensity() *grid.Field {
	f := grid.NewField(e.Global)
	h := e.Global.H()
	for _, a := range e.Sys.Atoms {
		sigma := 1.5 * a.Species.PsSigma
		amp := a.Species.Valence / math.Pow(2*math.Pi*sigma*sigma, 1.5)
		cut := 5 * sigma
		m := int(cut/h) + 1
		p := e.Sys.Cell.Wrap(a.Position)
		cx, cy, cz := int(p.X/h), int(p.Y/h), int(p.Z/h)
		for ix := cx - m; ix <= cx+m; ix++ {
			for iy := cy - m; iy <= cy+m; iy++ {
				for iz := cz - m; iz <= cz+m; iz++ {
					q := geom.Vec3{X: float64(ix) * h, Y: float64(iy) * h, Z: float64(iz) * h}
					d := e.Sys.Cell.MinImage(p, q)
					r2 := d.Norm2()
					if r2 > cut*cut {
						continue
					}
					f.Data[e.Global.Index(ix, iy, iz)] += amp * math.Exp(-r2/(2*sigma*sigma))
				}
			}
		}
	}
	total := f.Integral()
	want := e.Sys.TotalValence()
	if total > 0 {
		scale := want / total
		for i := range f.Data {
			f.Data[i] *= scale
		}
	}
	return f
}

// streamDomains runs f over every occupied domain, streaming them
// through the bounded workspace pool: worker w exclusively owns
// workspace e.ws[w] for the duration, so workspace scratch needs no
// locking, and at most len(e.ws) domains are resident at any instant.
func (e *Engine) streamDomains(f func(ws *workspace, st *domainState) error) error {
	return e.pool.RunWorkers(len(e.active), func(w, i int) error {
		return f(e.ws[w], e.states[e.active[i]])
	})
}
