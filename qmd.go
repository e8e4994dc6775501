// Package qmd is the public API of the LDC-DFT reproduction: quantum
// molecular dynamics with the lean divide-and-conquer density functional
// theory algorithm of Nomura et al., "Metascalable Quantum Molecular
// Dynamics Simulations of Hydrogen-on-Demand" (SC14).
//
// The package re-exports the building blocks a downstream user needs —
// atomic systems and builders, the LDC-DFT engine, the conventional
// O(N³) baseline, the MD integrator, the reactive hydrogen-on-demand
// surrogate, and the Blue Gene/Q performance model — and provides the
// high-level QMD driver RunQMD.
package qmd

import (
	"context"
	"fmt"

	"ldcdft/internal/atoms"
	"ldcdft/internal/cache"
	"ldcdft/internal/core"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/machine"
	"ldcdft/internal/md"
	"ldcdft/internal/scf"
)

// Re-exported atomic-structure types and builders.
type (
	// System is a periodic atomic configuration.
	System = atoms.System
	// Species is a chemical element with model pseudopotential data.
	Species = atoms.Species
	// Atom is one atom of a System.
	Atom = atoms.Atom
	// Vec3 is a 3-vector in Bohr.
	Vec3 = geom.Vec3
	// Cell is a periodic cubic cell.
	Cell = geom.Cell
)

// Predefined species.
var (
	Hydrogen = atoms.Hydrogen
	Oxygen   = atoms.Oxygen
	Lithium  = atoms.Lithium
	Aluminum = atoms.Aluminum
	Silicon  = atoms.Silicon
	Carbon   = atoms.Carbon
	Cadmium  = atoms.Cadmium
	Selenium = atoms.Selenium
)

// BuildSiC builds an n×n×n 3C-SiC supercell (8n³ atoms) — the
// weak-scaling workload of the paper's §5.1.
func BuildSiC(n int) *System { return atoms.BuildSiC(n) }

// LDC-DFT engine (the paper's primary contribution).
type (
	// LDCConfig configures an LDC-DFT calculation.
	LDCConfig = core.Config
	// LDCEngine is a live LDC-DFT calculation.
	LDCEngine = core.Engine
	// LDCMode selects LDC (boundary potential on) or original DC.
	LDCMode = core.Mode
	// SolveResult is the outcome of an SCF solve.
	SolveResult = core.SolveResult
)

// Boundary-condition modes.
const (
	ModeLDC = core.ModeLDC
	ModeDC  = core.ModeDC
)

// NewLDCEngine builds an LDC-DFT engine for the system.
func NewLDCEngine(sys *System, cfg LDCConfig) (*LDCEngine, error) {
	return core.NewEngine(sys, cfg)
}

// SolveConventional runs the O(N³) plane-wave DFT baseline (§5.5
// verification and §5.2 crossover baseline).
func SolveConventional(sys *System, cfg scf.Config) (*scf.Result, error) {
	return scf.Solve(sys, cfg)
}

// ConventionalConfig is the configuration of the O(N³) baseline.
type ConventionalConfig = scf.Config

// Molecular dynamics.
type (
	// Integrator advances a System with velocity Verlet.
	Integrator = md.Integrator
	// ForceField supplies energies and forces to the integrator.
	ForceField = md.ForceField
)

// NewIntegrator wraps a force field with the default (paper) time step
// of 0.242 fs when dtFs is 0.
func NewIntegrator(ff ForceField, dtFs float64) *Integrator {
	return md.NewIntegrator(ff, dtFs)
}

// BlueGeneQ returns the modelled Blue Gene/Q (Mira) machine.
func BlueGeneQ() *machine.Machine { return machine.BlueGeneQ() }

// DFTForceField adapts the LDC-DFT engine to the MD integrator: each
// force evaluation rebuilds the domain decomposition for the moved atoms
// and warm-starts the SCF from the previous step's converged density.
type DFTForceField struct {
	Cfg LDCConfig

	// Ctx, when non-nil, cancels the SCF loop between iterations — a
	// cancelled force evaluation returns promptly with an error wrapping
	// the context's cancellation cause (see core.Engine.SolveCtx).
	Ctx context.Context

	// Cache, when non-nil, is consulted before every SCF solve: an exact
	// hit returns the stored energy/forces/density without solving, and a
	// near miss seeds the SCF from the nearest cached density when no
	// previous-step density is available. Every completed solve is stored
	// back (best-effort — a cache write failure never fails the solve).
	Cache *cache.Cache

	prevRho *grid.Field
	// LastSCFIters reports the SCF iterations of the latest evaluation
	// (0 when an exact cache hit skipped the solve).
	LastSCFIters int
	// LastEngine exposes the most recent engine (density, μ, …); nil when
	// an exact cache hit skipped the engine build.
	LastEngine *LDCEngine
	// LastCacheTier reports how the cache served the latest evaluation
	// (cache.TierMiss when no cache is configured).
	LastCacheTier cache.Tier

	cfgTag    string
	seedIters int // stored cost of the near-miss seed, for savings accounting
}

// tag returns the cache configuration tag: every physics-relevant Config
// field, excluding scheduling-only Workers, so runs that differ only in
// parallelism share cache entries.
func (f *DFTForceField) tag() string {
	if f.cfgTag == "" {
		c := f.Cfg
		f.cfgTag = fmt.Sprintf("ldc1|g%d d%d b%d e%g m%d x%g kt%g mix%g and%t pul%t scf%d et%g dt%g ei%d bb%t s%d",
			c.GridN, c.DomainsPerAxis, c.BufN, c.Ecut, c.Mode, c.Xi, c.KT,
			c.MixAlpha, c.Anderson, c.Pulay, c.MaxSCF, c.EnergyTol, c.DensityTol,
			c.EigenIters, c.BandByBand, c.Seed)
	}
	return f.cfgTag
}

// Compute implements ForceField.
func (f *DFTForceField) Compute(sys *System) (float64, []Vec3, error) {
	f.LastCacheTier = cache.TierMiss
	if f.Cache != nil {
		// A near-miss seed is only worth decoding when there is no
		// previous-step density — mid-trajectory the integrator's own
		// density is the better (and free) warm start.
		res, tier := f.Cache.Lookup(sys, f.tag(), f.prevRho == nil)
		f.LastCacheTier = tier
		switch tier {
		case cache.TierExact:
			f.prevRho = res.Rho
			f.LastSCFIters = 0
			f.releaseEngine()
			return res.EnergyHa, res.Forces, nil
		case cache.TierNear:
			f.prevRho = res.Rho
			f.seedIters = res.SCFIterations
		}
	}
	eng, err := core.NewEngine(sys, f.Cfg)
	if err != nil {
		return 0, nil, fmt.Errorf("qmd: engine rebuild: %w", err)
	}
	if f.prevRho != nil {
		if err := eng.SetDensity(f.prevRho); err != nil {
			eng.Close()
			return 0, nil, err
		}
	}
	ctx := f.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := eng.SolveCtx(ctx)
	if err != nil {
		eng.Close()
		return 0, nil, fmt.Errorf("qmd: SCF: %w", err)
	}
	f.prevRho = eng.ExportDensity()
	f.LastSCFIters = res.Iterations
	// The engine being replaced releases its wave-function store now
	// (deterministically freeing spill files / psi memory) rather than at
	// some future GC; the fresh engine stays open for post-run analysis
	// (DOS, frontier orbitals) until the next evaluation or Close.
	f.releaseEngine()
	f.LastEngine = eng
	forces, err := eng.Forces()
	if err != nil {
		return 0, nil, err
	}
	if f.Cache != nil {
		f.Cache.Put(sys, f.tag(), &cache.Result{
			EnergyHa:      res.Energy,
			Forces:        forces,
			SCFIterations: res.Iterations,
			Rho:           f.prevRho,
		})
		if f.seedIters > 0 {
			f.Cache.AddIterationsSaved(int64(f.seedIters - res.Iterations))
			f.seedIters = 0
		}
	}
	return res.Energy, forces, nil
}

// releaseEngine closes and forgets the retained engine, if any.
func (f *DFTForceField) releaseEngine() {
	if f.LastEngine != nil {
		f.LastEngine.Close()
		f.LastEngine = nil
	}
}

// Close releases the retained engine's wave-function store (spill files
// or psi memory). Call when done with post-run analysis on LastEngine;
// the force field remains usable — the next Compute builds a fresh
// engine.
func (f *DFTForceField) Close() error {
	f.releaseEngine()
	return nil
}

// SetContext installs Ctx; having it tells the trajectory driver that a
// cancellation can abandon a force evaluation — and so a step — part-way.
func (f *DFTForceField) SetContext(ctx context.Context) { f.Ctx = ctx }

// Density returns the converged density of the most recent completed
// force evaluation (nil before the first; a failed or cancelled one never
// replaces it) — the SCF warm start a checkpoint must capture.
func (f *DFTForceField) Density() *grid.Field { return f.prevRho }

// SetDensity installs a warm-start density for the next force
// evaluation, e.g. the density grid restored from a checkpoint.
func (f *DFTForceField) SetDensity(rho *grid.Field) { f.prevRho = rho }

// QMDResult summarizes a quantum MD trajectory.
type QMDResult struct {
	Steps         int
	SCFIterations int // total across steps (the paper counts 129,208 for its production run)
	Energies      []float64
	Temperatures  []float64
	FinalSystem   *System
}

// RunQMD runs an LDC-DFT quantum MD trajectory: the Fig. 2 SCF loop
// inside a velocity-Verlet loop.
func RunQMD(sys *System, cfg LDCConfig, steps int, dtFs float64) (*QMDResult, error) {
	return RunQMDOpts(sys, cfg, steps, dtFs, QMDOptions{})
}
