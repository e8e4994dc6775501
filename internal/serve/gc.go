package serve

import (
	"os"
	"time"
)

// Job-store retention. Without bounds the store grows one directory per
// job forever — checkpoints included, which dominate the footprint. Two
// independent knobs prune *terminal* jobs (completed/failed/cancelled;
// queued and running jobs are never touched):
//
//   - RetainAge: a terminal job older than this (by FinishedAt) is
//     pruned.
//   - RetainMaxJobs: at most this many terminal jobs are kept; the
//     oldest (by FinishedAt) go first.
//
// Pruning removes the job's directory — spec, state, results, and
// checkpoint — and forgets the job entirely: its ID answers 404
// afterwards. The admission sequence is monotonic and survives pruning
// (recovery advances it past every directory ever seen in this
// process), so IDs are never reused within a daemon's store lifetime.

// maybePruneLocked enforces the retention bounds. Called after every
// terminal transition and once at recovery; callers hold the manager
// lock.
func (m *Manager) maybePruneLocked() {
	if m.cfg.RetainAge <= 0 && m.cfg.RetainMaxJobs <= 0 {
		return
	}
	var terminal []*job
	for _, j := range m.jobs {
		if j.state.Status.Terminal() {
			terminal = append(terminal, j)
		}
	}
	// Oldest first. FinishedAt can be zero on jobs recovered from a
	// store written before retention existed; zero sorts oldest, which
	// prunes them first — the right call for bound enforcement.
	for i := 1; i < len(terminal); i++ {
		for k := i; k > 0 && terminal[k].state.FinishedAt.Before(terminal[k-1].state.FinishedAt); k-- {
			terminal[k], terminal[k-1] = terminal[k-1], terminal[k]
		}
	}
	now := time.Now().UTC()
	for i, j := range terminal {
		tooOld := m.cfg.RetainAge > 0 && now.Sub(j.state.FinishedAt) > m.cfg.RetainAge
		tooMany := m.cfg.RetainMaxJobs > 0 && len(terminal)-i > m.cfg.RetainMaxJobs
		if !tooOld && !tooMany {
			// Sorted ascending by age bound and count bound alike: the
			// first survivor means every later entry survives too.
			break
		}
		m.pruneLocked(j)
	}
}

// pruneLocked removes one terminal job from the store and the in-memory
// index. Callers hold the manager lock.
func (m *Manager) pruneLocked(j *job) {
	if err := os.RemoveAll(j.dir); err != nil {
		m.cfg.Logf("serve: prune %s: %v", j.id, err)
		return
	}
	delete(m.jobs, j.id)
	if key := reuseKey(j.spec); m.finished[key] == j {
		delete(m.finished, key)
	}
	m.pruned++
	m.cfg.Logf("serve: pruned job %s (%s, finished %s)", j.id, j.state.Status,
		j.state.FinishedAt.Format(time.RFC3339))
}
