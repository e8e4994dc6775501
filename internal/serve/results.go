package serve

import (
	"errors"
	"os"
	"path/filepath"

	qmd "ldcdft"
	"ldcdft/internal/atoms"
	"ldcdft/internal/qio"
	"ldcdft/internal/reactive"
)

// ErrNoResults marks a results fetch for a job that has none yet — not
// completed, or completed before the daemon recorded results.
var ErrNoResults = errors.New("serve: job has no results")

// SystemSnapshot is a JSON-safe atomic configuration: the final frame
// of a finished trajectory, enough for structural observables (g(r),
// species census) computed by clients like the experiment harness.
type SystemSnapshot struct {
	CellL float64    `json:"cell_l"`
	Atoms []AtomSpec `json:"atoms"`
}

// SnapshotSystem captures sys as a SystemSnapshot.
func SnapshotSystem(sys *atoms.System) *SystemSnapshot {
	snap := &SystemSnapshot{CellL: sys.Cell.L, Atoms: make([]AtomSpec, len(sys.Atoms))}
	for i, a := range sys.Atoms {
		snap.Atoms[i] = AtomSpec{
			Species:  a.Species.Symbol,
			Position: [3]float64{a.Position.X, a.Position.Y, a.Position.Z},
			Velocity: [3]float64{a.Velocity.X, a.Velocity.Y, a.Velocity.Z},
		}
	}
	return snap
}

// BuildSystem materializes the snapshot back into an atomic system.
func (s *SystemSnapshot) BuildSystem() (*atoms.System, error) {
	js := JobSpec{CellL: s.CellL, Atoms: s.Atoms, Steps: 1,
		Config: qmd.LDCConfig{GridN: 1, DomainsPerAxis: 1, Ecut: 1}}
	return js.BuildSystem()
}

// Results is the durable final record of a completed job — the body of
// GET /v1/jobs/{id}/results and the results.json artifact, and the raw
// material of the experiment harness's observable validators. The
// per-step series carry at most the last StateSeriesTail samples (the
// full series lives in the trajectory checkpoint).
type Results struct {
	Engine        string    `json:"engine"`
	Steps         int       `json:"steps"`
	SCFIterations int       `json:"scf_iterations,omitempty"`
	FinalEnergyHa float64   `json:"final_energy_ha"`
	EnergiesHa    []float64 `json:"energies_ha,omitempty"`
	TemperaturesK []float64 `json:"temperatures_k,omitempty"`

	// Reactive-engine observables (§6): the species census of the final
	// frame and the H₂ production rates of Fig. 9.
	Census               *reactive.Census `json:"census,omitempty"`
	RatePerPairPerSec    float64          `json:"rate_per_pair_per_sec,omitempty"`
	RatePerSurfacePerSec float64          `json:"rate_per_surface_per_sec,omitempty"`
	SurfaceAtoms         int              `json:"surface_atoms,omitempty"`
	PairCount            int              `json:"pair_count,omitempty"`
	PHStart              float64          `json:"ph_start,omitempty"`
	PHEnd                float64          `json:"ph_end,omitempty"`

	// FinalSystem is the last frame of the trajectory.
	FinalSystem *SystemSnapshot `json:"final_system,omitempty"`
}

// OpenResults opens the results.json of a completed job, to be served
// as stored. ErrNotFound marks an unknown ID; ErrNoResults a job that has
// not produced results (yet).
func (m *Manager) OpenResults(id string) (*os.File, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, ErrNotFound
	}
	f, err := os.Open(filepath.Join(j.dir, qio.JobResultsFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoResults
	}
	return f, err
}

// stageResults writes res as job id's results.json into a staged
// qio.AtomicFile, without the manager lock. CompleteLease commits it
// only after its lease check under the lock, so a zombie's results are
// never published: they are staged, then aborted. nil means nothing to
// commit — no results, an unknown job (the lease check answers), or a
// write that failed (logged; the job completes without results).
func (m *Manager) stageResults(id string, res *Results) *qio.AtomicFile {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil || res == nil {
		return nil
	}
	af, err := qio.StageJSONFile(filepath.Join(j.dir, qio.JobResultsFile), res)
	if err != nil {
		m.cfg.Logf("serve: persist results %s: %v", id, err)
	}
	return af
}
