package core

import (
	"ldcdft/internal/grid"
	"ldcdft/internal/pw"
	"ldcdft/internal/scf"
)

// workspace is one slot of the bounded solver pool: a retargetable
// plane-wave engine plus all per-visit scratch for the uniform local
// grid. A workspace is exclusively owned by one pool worker for the
// duration of a streamed pass (bsd.Pool.RunWorkers), so none of its
// fields need locking. Its memory is O(localGrid × maxBands) and is
// independent of how many domains stream through it.
type workspace struct {
	eng *scf.Engine

	rhoExt   *grid.Field // extracted global density over the extended domain
	vhExt    *grid.Field // extracted global Hartree potential
	vxcExt   *grid.Field // extracted global exchange-correlation potential
	rhoLocal *grid.Field // assembled local density ρα of the current visit
	veff     []float64   // effective potential scratch

	core    *pw.Box    // the domain core on the local grid, the same for every domain
	scratch pw.Scratch // density and core-weight scratch
}

// newWorkspace builds one pool slot for the local cell geometry the
// domains of a uniform decomposition share (d is any one of them), able
// to host any domain with up to maxBands Kohn–Sham bands.
func newWorkspace(d grid.Domain, cfg Config, maxBands int) (*workspace, error) {
	lg := d.LocalGrid()
	eng, err := scf.NewWorkspaceEngine(lg.L, lg.N, cfg.Ecut, maxBands)
	if err != nil {
		return nil, err
	}
	eng.EigenIters = cfg.EigenIters
	return &workspace{
		eng:      eng,
		core:     pw.NewBox(eng.Basis, d.BufN, d.CoreN),
		rhoExt:   grid.NewField(lg),
		vhExt:    grid.NewField(lg),
		vxcExt:   grid.NewField(lg),
		rhoLocal: grid.NewField(lg),
		veff:     make([]float64, lg.Size()),
	}, nil
}

// retarget points the workspace at a domain's atoms and band count and
// loads its persisted wave functions from the store — or, on the
// domain's first visit, seeds the deterministic random guess of the
// domain's seed. withProjectors selects the full retarget (needed before
// diagonalization and nonlocal forces), with the domain's ionic
// potential, built on its first such visit; passes that only transform
// stored wave functions skip the projector rebuild.
func (ws *workspace) retarget(st *domainState, store psiStore, withProjectors bool) error {
	var err error
	if withProjectors {
		if st.vps == nil {
			st.vps = pw.BuildLocalPseudo(ws.eng.Basis, st.da.Species, st.da.Local)
		}
		err = ws.eng.RetargetVps(st.da.Species, st.da.Local, st.vps, st.nb)
	} else {
		err = ws.eng.RetargetBands(st.nb)
	}
	if err != nil {
		return err
	}
	if st.hasPsi {
		return store.load(st.di, ws.eng.PsiData())
	}
	return ws.eng.SeedRandom(st.seed)
}
