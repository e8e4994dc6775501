package scf

import (
	"fmt"
	"math/rand"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/grid"
	"ldcdft/internal/linalg"
	"ldcdft/internal/pseudo"
	"ldcdft/internal/pw"
)

// Workspace support: an Engine built by NewWorkspaceEngine is a reusable
// solver shell. The geometry-bound machinery — plane-wave basis, FFT
// plans and pooled scratch, the Hamiltonian's kinetic data — is built
// once for a cell shape, while the atom-bound parts (nonlocal
// projectors, ionic local potential, wave functions) are (re)installed
// per target via Retarget, or RetargetVps when the caller keeps the
// ionic potential. The LDC-DFT core streams all DC domains
// through a bounded set of such workspaces: every domain of a uniform
// decomposition shares the same local cell geometry, so one workspace
// serves arbitrarily many domains with O(1) memory.

// NewWorkspaceEngine builds a retargetable Engine for a cell of side
// cellL with a gridN³ FFT grid and cutoff ecut, able to hold up to
// maxBands bands without reallocation. The returned engine has no atoms
// installed; call Retarget before solving.
func NewWorkspaceEngine(cellL float64, gridN int, ecut float64, maxBands int) (*Engine, error) {
	b, err := pw.NewBasis(grid.New(gridN, cellL), ecut)
	if err != nil {
		return nil, err
	}
	if maxBands < 1 {
		return nil, fmt.Errorf("scf: workspace needs at least one band, got %d", maxBands)
	}
	e := &Engine{
		Basis:      b,
		Ham:        pw.NewHamiltonian(b, nil),
		EigenIters: 3,
		psiBuf:     make([]complex128, b.Np()*maxBands),
	}
	return e, nil
}

// ensurePsiCap grows the reusable wave-function backing store to hold nb
// bands (it never shrinks — the workspace keeps its high-water mark).
func (e *Engine) ensurePsiCap(nb int) {
	need := e.Basis.Np() * nb
	if cap(e.psiBuf) < need {
		e.psiBuf = make([]complex128, need)
	}
}

// RetargetBands reslices the workspace's wave-function matrix to nb
// bands over the shared backing buffer, without touching projectors or
// potentials. The matrix content is unspecified until the caller loads
// or seeds it. Used by passes that only transform stored wave functions
// (density assembly, spill reload) and need no Hamiltonian.
func (e *Engine) RetargetBands(nb int) error {
	np := e.Basis.Np()
	if nb < 1 || nb > np {
		return fmt.Errorf("scf: %d bands outside [1, %d]", nb, np)
	}
	e.ensurePsiCap(nb)
	e.Psi = &linalg.CMatrix{Rows: np, Cols: nb, Data: e.psiBuf[:np*nb]}
	return nil
}

// Retarget points the workspace at a new atomic configuration: the
// nonlocal projectors and the ionic local potential are built for the
// given atoms, and the wave-function matrix is resliced to nb bands.
// Positions must be relative to the workspace cell origin.
func (e *Engine) Retarget(species []*atoms.Species, positions []geom.Vec3, nb int) error {
	if len(species) != len(positions) {
		return fmt.Errorf("scf: %d species vs %d positions", len(species), len(positions))
	}
	return e.RetargetVps(species, positions, pw.BuildLocalPseudo(e.Basis, species, positions), nb)
}

// RetargetVps is Retarget with the ionic local potential of these atoms
// (pw.BuildLocalPseudo on this workspace's basis) supplied by the
// caller, who builds it once per configuration and keeps it; it is
// installed by reference. The basis, FFT plans and scratch pools are
// untouched, so a visit costs the projectors — O(atoms × plane waves) —
// versus the O(grid × bands) cost of building a new Engine.
func (e *Engine) RetargetVps(species []*atoms.Species, positions []geom.Vec3, vps []float64, nb int) error {
	if len(species) != len(positions) {
		return fmt.Errorf("scf: %d species vs %d positions", len(species), len(positions))
	}
	if len(vps) != e.Basis.Grid.Size() {
		return fmt.Errorf("scf: ionic potential of %d points on a %d-point grid", len(vps), e.Basis.Grid.Size())
	}
	if err := e.RetargetBands(nb); err != nil {
		return err
	}
	e.Species = species
	e.Positions = positions
	e.Ham.SetProjectors(pseudo.BuildProjectors(e.Basis.G, e.Basis.G2, e.Basis.Volume(), species, positions))
	e.Vps = vps
	return nil
}

// SeedRandom fills the current wave-function matrix with the
// deterministic orthonormalized random guess for the given seed — the
// Psi NewEngine(seed) starts from, so a streamed solve reproduces a
// single-engine solve exactly.
func (e *Engine) SeedRandom(seed int64) error {
	psi, err := pw.RandomOrbitals(e.Basis, e.Psi.Cols, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	copy(e.Psi.Data, psi.Data)
	return nil
}

// PsiData returns the live wave-function coefficient slice (row-major,
// Np × nb). Callers must copy it before the workspace is retargeted.
func (e *Engine) PsiData() []complex128 { return e.Psi.Data }
