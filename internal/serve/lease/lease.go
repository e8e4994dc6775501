// Package lease is the lease table of the serving layer: it tracks
// which worker — a remote node or an in-process slot — holds which job,
// for how long, and — critically — under which epoch. Epochs are the
// fencing tokens that make crash-safe requeue sound: every grant of a
// job increments its epoch, and every mutation a worker attempts (renew,
// checkpoint upload, completion) must present the epoch it was granted.
// A zombie worker — one whose lease expired during a GC pause, a
// network partition, or a SIGKILL it somehow survived — still holds the
// old epoch, so after the job has been requeued and re-leased every one
// of its calls is rejected instead of clobbering the new assignee's
// progress.
//
// The table is purely in-memory bookkeeping: the durable record of the
// current epoch lives in the job store (serve.JobState.LeaseEpoch), so
// fencing survives coordinator restarts too.
package lease

import (
	"errors"
	"sync"
	"time"
)

// Sentinel errors of the fencing API. Both map to HTTP 409 at the
// serving layer: the worker's claim on the job is gone and it must
// abandon the trajectory.
var (
	// ErrNotLeased rejects an operation on a job with no active lease
	// (expired and not yet re-granted, completed, or cancelled).
	ErrNotLeased = errors.New("lease: job is not leased")
	// ErrStale rejects an operation presenting an epoch older (or newer)
	// than the active lease's — the zombie-worker fence.
	ErrStale = errors.New("lease: stale epoch")
)

// Lease is a snapshot of one active lease. A zero ExpiresAt marks a
// held lease (see Hold): one that never expires.
type Lease struct {
	JobID     string
	Worker    string
	Epoch     int64
	ExpiresAt time.Time
}

// Table tracks the active leases of a coordinator. All methods are safe
// for concurrent use.
type Table struct {
	mu     sync.Mutex
	ttl    time.Duration
	active map[string]Lease
}

// NewTable returns an empty table whose leases last ttl past their
// grant or most recent renewal.
func NewTable(ttl time.Duration) *Table {
	return &Table{ttl: ttl, active: make(map[string]Lease)}
}

// TTL returns the lease duration.
func (t *Table) TTL() time.Duration { return t.ttl }

// Grant records a new lease on jobID held by worker under epoch,
// expiring TTL from now. The caller owns epoch monotonicity (the serve
// layer increments the job's persisted epoch on every grant); any
// previous lease on the job is overwritten.
func (t *Table) Grant(jobID, worker string, epoch int64, now time.Time) Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := Lease{JobID: jobID, Worker: worker, Epoch: epoch, ExpiresAt: now.Add(t.ttl)}
	t.active[jobID] = l
	return l
}

// Hold records a lease on jobID that never expires, for a holder that
// lives in the table's own process: it cannot be partitioned from the
// table, and if the process dies the table dies with it (the serve
// layer's recovery requeues the job from the durable store). Epochs
// fence a held lease exactly like a granted one; Renew leaves it held.
func (t *Table) Hold(jobID, worker string, epoch int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active[jobID] = Lease{JobID: jobID, Worker: worker, Epoch: epoch}
}

// Check verifies that jobID is actively leased under exactly epoch.
func (t *Table) Check(jobID string, epoch int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checkLocked(jobID, epoch)
}

func (t *Table) checkLocked(jobID string, epoch int64) error {
	l, ok := t.active[jobID]
	switch {
	case !ok:
		return ErrNotLeased
	case l.Epoch != epoch:
		return ErrStale
	}
	return nil
}

// Renew extends the lease by TTL from now, returning the refreshed
// lease. The heartbeat path: a worker that keeps renewing keeps its
// claim; one that stops (crash, partition) loses it at ExpiresAt.
func (t *Table) Renew(jobID string, epoch int64, now time.Time) (Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkLocked(jobID, epoch); err != nil {
		return Lease{}, err
	}
	l := t.active[jobID]
	if !l.ExpiresAt.IsZero() {
		l.ExpiresAt = now.Add(t.ttl)
		t.active[jobID] = l
	}
	return l, nil
}

// Drop removes any lease on jobID unconditionally — the coordinator's
// own path (client cancellation), which outranks whatever the worker
// holds.
func (t *Table) Drop(jobID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.active, jobID)
}

// Expired removes and returns every granted lease whose ExpiresAt is at
// or before now (held leases never qualify). The serve layer requeues
// the returned jobs; a worker calling in after this point gets
// ErrNotLeased (or ErrStale once the job is re-granted under a fresh
// epoch).
func (t *Table) Expired(now time.Time) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Lease
	for id, l := range t.active {
		if !l.ExpiresAt.IsZero() && !l.ExpiresAt.After(now) {
			out = append(out, l)
			delete(t.active, id)
		}
	}
	return out
}

// Len reports the number of active leases.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}
