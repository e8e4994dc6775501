package scf

import (
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
)

// twoAtomTarget returns a small two-atom configuration for workspace
// retarget tests.
func twoAtomTarget(shift float64) ([]*atoms.Species, []geom.Vec3) {
	return []*atoms.Species{atoms.Silicon, atoms.Carbon},
		[]geom.Vec3{{X: 1.0 + shift, Y: 1.2, Z: 1.4}, {X: 4.0, Y: 3.8 - shift, Z: 3.6}}
}

// diagOnce builds the Gaussian-guess effective potential and runs one
// diagonalization, returning the eigenvalues.
func diagOnce(t *testing.T, e *Engine) []float64 {
	t.Helper()
	rho := e.InitialDensity()
	e.EffectivePotentialFrom(rho)
	res, err := e.Diagonalize()
	if err != nil {
		t.Fatalf("diagonalize: %v", err)
	}
	return res.Eigenvalues
}

// TestWorkspaceMatchesResidentEngine: a workspace retargeted at a
// configuration and seeded with the resident engine's seed reproduces
// the resident engine's Psi, Vps, and first diagonalization bitwise —
// the invariant the streaming LDC core rests on.
func TestWorkspaceMatchesResidentEngine(t *testing.T) {
	const (
		cellL = 8.0
		gridN = 12
		ecut  = 4.0
		nb    = 6
		seed  = 31
	)
	sp, pos := twoAtomTarget(0)

	ref, err := NewEngine(cellL, gridN, ecut, nb, sp, pos, seed)
	if err != nil {
		t.Fatalf("resident engine: %v", err)
	}
	ws, err := NewWorkspaceEngine(cellL, gridN, ecut, 4) // smaller than nb: capacity must grow
	if err != nil {
		t.Fatalf("workspace engine: %v", err)
	}
	// Visit a different configuration first, so the test covers re-target
	// (not just first-target) state.
	osp, opos := twoAtomTarget(0.3)
	if err := ws.Retarget(osp, opos, 3); err != nil {
		t.Fatalf("first retarget: %v", err)
	}
	if err := ws.SeedRandom(99); err != nil {
		t.Fatalf("seed: %v", err)
	}

	if err := ws.Retarget(sp, pos, nb); err != nil {
		t.Fatalf("retarget: %v", err)
	}
	if err := ws.SeedRandom(seed); err != nil {
		t.Fatalf("seed: %v", err)
	}

	if len(ws.Psi.Data) != len(ref.Psi.Data) {
		t.Fatalf("psi size %d != %d", len(ws.Psi.Data), len(ref.Psi.Data))
	}
	for i := range ref.Psi.Data {
		if ws.Psi.Data[i] != ref.Psi.Data[i] {
			t.Fatalf("psi[%d] = %v, resident %v", i, ws.Psi.Data[i], ref.Psi.Data[i])
		}
	}
	for i := range ref.Vps {
		if ws.Vps[i] != ref.Vps[i] {
			t.Fatalf("vps[%d] = %v, resident %v", i, ws.Vps[i], ref.Vps[i])
		}
	}

	refEig := diagOnce(t, ref)
	wsEig := diagOnce(t, ws)
	for n := range refEig {
		if refEig[n] != wsEig[n] {
			t.Fatalf("eig[%d] = %v, resident %v", n, wsEig[n], refEig[n])
		}
	}
}

// TestWorkspacePsiRoundTrip: coefficients copied out of and back into
// PsiData restore the exact state across an intervening retarget — the
// spill-store contract.
func TestWorkspacePsiRoundTrip(t *testing.T) {
	sp, pos := twoAtomTarget(0)
	ws, err := NewWorkspaceEngine(8.0, 12, 4.0, 6)
	if err != nil {
		t.Fatalf("workspace engine: %v", err)
	}
	if err := ws.Retarget(sp, pos, 5); err != nil {
		t.Fatalf("retarget: %v", err)
	}
	if err := ws.SeedRandom(7); err != nil {
		t.Fatalf("seed: %v", err)
	}
	saved := append([]complex128(nil), ws.PsiData()...)

	osp, opos := twoAtomTarget(0.2)
	if err := ws.Retarget(osp, opos, 6); err != nil {
		t.Fatalf("second retarget: %v", err)
	}
	if err := ws.SeedRandom(8); err != nil {
		t.Fatalf("seed: %v", err)
	}

	if err := ws.Retarget(sp, pos, 5); err != nil {
		t.Fatalf("third retarget: %v", err)
	}
	if n := copy(ws.PsiData(), saved); n != len(ws.PsiData()) {
		t.Fatalf("restored %d of %d coefficients", n, len(ws.PsiData()))
	}
	for i, v := range saved {
		if ws.PsiData()[i] != v {
			t.Fatalf("psi[%d] changed across round trip", i)
		}
	}
}

// TestWorkspaceRejectsBadBandCounts pins the band-count validation.
func TestWorkspaceRejectsBadBandCounts(t *testing.T) {
	ws, err := NewWorkspaceEngine(8.0, 12, 4.0, 4)
	if err != nil {
		t.Fatalf("workspace engine: %v", err)
	}
	if err := ws.RetargetBands(0); err == nil {
		t.Fatalf("accepted 0 bands")
	}
	if err := ws.RetargetBands(ws.Basis.Np() + 1); err == nil {
		t.Fatalf("accepted more bands than plane waves")
	}
	if _, err := NewWorkspaceEngine(8.0, 12, 4.0, 0); err == nil {
		t.Fatalf("accepted 0 max bands")
	}
}
