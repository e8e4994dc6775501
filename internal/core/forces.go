package core

import (
	"ldcdft/internal/geom"
	"ldcdft/internal/pw"
)

// Forces returns the total force on every atom: the occupied domains
// stream through the workspace pool once more, each computing the
// Hellmann–Feynman forces (local pseudopotential against its local
// density, rebuilt from the stored wave functions, plus nonlocal
// projector terms) for the atoms it owns (its core atoms); the global
// ion-ion term is the one NewEngine evaluated on the full cell. Every
// atom belongs to exactly one core, so the concurrent writes into the
// force array are disjoint, and vacuum domains own no atoms at all.
func (e *Engine) Forces() ([]geom.Vec3, error) {
	forces := make([]geom.Vec3, e.Sys.NumAtoms())
	err := e.streamDomains(func(ws *workspace, st *domainState) error {
		if st.occ == nil || !st.hasPsi {
			return nil // no SCF step yet: only ion-ion forces exist
		}
		if err := ws.retarget(st, e.store, true); err != nil {
			return err
		}
		b := ws.eng.Basis
		local := ws.rhoLocal
		pw.DensityInto(b, ws.eng.Psi, st.occ, local.Data, &ws.scratch)
		fLoc := pw.LocalForces(b, local.Data, st.da.Species, st.da.Local)
		fNl := pw.NonlocalForces(b, ws.eng.Ham.Projectors(), ws.eng.Psi, st.occ, len(st.da.Species))
		for k, gi := range st.da.Index {
			if !st.da.InCore[k] {
				continue
			}
			forces[gi] = forces[gi].Add(fLoc[k]).Add(fNl[k])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range forces {
		forces[i] = forces[i].Add(e.fII[i])
	}
	return forces, nil
}
