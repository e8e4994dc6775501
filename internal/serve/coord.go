package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"ldcdft/internal/qio"
)

// A job's lease epoch is its fencing token: every grant increments it,
// and every mutation a holder attempts (renew, step report, checkpoint
// upload, completion) must present the epoch it was granted. A zombie
// worker — one whose lease expired during a GC pause, a partition, or a
// SIGKILL it somehow survived — still holds the old epoch, so once the
// job has been requeued and re-leased each of its calls is rejected
// instead of clobbering the new holder's progress. The epoch is
// persisted in state.json, so the fence survives coordinator restarts.
//
// Both fencing errors map to HTTP 409: the worker's claim on the job is
// gone and it must abandon the trajectory.
var (
	// ErrNotLeased rejects an operation on a job that is not running
	// (expired and not yet re-granted, completed, or cancelled).
	ErrNotLeased = errors.New("lease: job is not leased")
	// ErrStale rejects an operation presenting an epoch other than the
	// running job's — the zombie-worker fence.
	ErrStale = errors.New("lease: stale epoch")
)

// errEpochNotPersisted refuses a grant (503 over HTTP) whose epoch could
// not be written to state.json: after a restart the store would hand
// the same epoch out again and a pre-crash zombie would pass the fence.
var errEpochNotPersisted = errors.New("serve: lease epoch not persisted")

// ErrNoCheckpoint marks a checkpoint download for a job that has not
// uploaded one yet (fresh job: the worker starts the trajectory from
// the spec instead).
var ErrNoCheckpoint = errors.New("serve: job has no checkpoint")

// LeaseGrant is the manager's answer to a successful acquire: the job,
// the fencing epoch every subsequent call must present, the TTL the
// worker has to renew within, and whether a checkpoint exists to resume
// from (downloaded separately via the checkpoint endpoint).
type LeaseGrant struct {
	JobID         string        `json:"job_id"`
	Spec          JobSpec       `json:"spec"`
	Epoch         int64         `json:"epoch"`
	TTL           time.Duration `json:"ttl_ns"`
	StepsDone     int           `json:"steps_done"`
	HasCheckpoint bool          `json:"has_checkpoint"`
}

// CompleteRequest is a worker's terminal report on a lease.
type CompleteRequest struct {
	Worker string `json:"worker,omitempty"`
	Epoch  int64  `json:"epoch"`
	// Status is the outcome: "completed" (Report carries the full
	// trajectory record), "failed" (Error explains), "cancelled" (the
	// holder stopped on a client cancel; Report is the interrupted
	// run's record), or "released" (drain — the job goes back in the
	// queue and the next holder resumes it from its last checkpoint).
	Status string    `json:"status"`
	Error  string    `json:"error,omitempty"`
	Report RunReport `json:"report"`
}

// Acquire leases the best pending job to worker, long-polling up to
// wait when the queue is empty: (nil, nil) means no work arrived in
// time — the worker just polls again. The pick is jobQueue's: highest
// priority, then largest estimated remaining cost, so the makespan is
// not at the mercy of arrival order. The grant increments and persists
// the job's lease epoch before returning — the fence against the
// previous holder.
func (m *Manager) Acquire(ctx context.Context, worker string, wait time.Duration) (*LeaseGrant, error) {
	return m.acquire(ctx, worker, wait, nil)
}

// acquire serves both kinds of holder. A worker node passes a nil
// cancel; an in-process slot passes the cancel func of the context it
// will run the job under, which the grant registers on the job (what
// Cancel and Shutdown interrupt) and takes as the sign to hold the
// lease without expiry.
func (m *Manager) acquire(ctx context.Context, worker string, wait time.Duration,
	cancel context.CancelCauseFunc) (*LeaseGrant, error) {
	if worker == "" {
		return nil, fmt.Errorf("serve: lease acquire requires a worker name")
	}
	deadline := time.Now().Add(wait)
	// Both wakeup sources Broadcast while holding the manager lock, so
	// a waiter between its condition check and cond.Wait cannot miss
	// the only wakeup it was going to get.
	wake := func() { m.mu.Lock(); m.cond.Broadcast(); m.mu.Unlock() }
	timer := time.AfterFunc(wait, wake)
	defer timer.Stop()
	stop := context.AfterFunc(ctx, wake)
	defer stop()

	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.draining {
			return nil, ErrShuttingDown
		}
		if m.queue.Len() > 0 {
			return m.grantLocked(m.queue.pop(), worker, cancel)
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			return nil, nil
		}
		m.cond.Wait()
	}
}

// grantLocked marks j leased to worker under the next epoch and builds
// the grant. The epoch is durable before anyone learns it: if state.json
// cannot be written the job goes back in the queue as it was and the
// grant is refused. Callers hold the manager lock.
func (m *Manager) grantLocked(j *job, worker string, cancel context.CancelCauseFunc) (*LeaseGrant, error) {
	before := j.state
	j.state.LeaseEpoch++
	j.state.Worker = worker
	j.state.Status = StatusRunning
	if j.state.StartedAt.IsZero() {
		j.state.StartedAt = time.Now().UTC()
	}
	if err := m.persistState(j); err != nil {
		j.state = before
		m.queue.push(j)
		return nil, fmt.Errorf("%w: job %s: %v", errEpochNotPersisted, j.id, err)
	}
	j.cancel = cancel
	j.expires = time.Now().Add(m.cfg.LeaseTTL) // ignored while a slot holds it
	m.leasesGranted++
	m.broadcast(j, Event{Type: "status", Status: StatusRunning, Step: j.state.StepsDone})
	_, ckErr := os.Stat(m.root.CheckpointPath(j.id))
	m.cfg.Logf("serve: job %s leased to %s (epoch %d, %d/%d steps done)",
		j.id, worker, j.state.LeaseEpoch, j.state.StepsDone, j.spec.Steps)
	return &LeaseGrant{
		JobID:         j.id,
		Spec:          j.spec,
		Epoch:         j.state.LeaseEpoch,
		TTL:           m.cfg.LeaseTTL,
		StepsDone:     j.state.StepsDone,
		HasCheckpoint: ckErr == nil,
	}, nil
}

// leasedLocked resolves id to its job iff it is running under exactly
// epoch, counting fencing rejections. Callers hold the lock.
func (m *Manager) leasedLocked(id string, epoch int64) (*job, error) {
	j := m.jobs[id]
	switch {
	case j == nil:
		return nil, ErrNotFound
	case j.state.Status != StatusRunning:
		m.staleRejected++
		return nil, ErrNotLeased
	case j.state.LeaseEpoch != epoch:
		m.staleRejected++
		return nil, ErrStale
	}
	return j, nil
}

// RenewLease extends the lease by one TTL — the worker heartbeat.
// Returns the refreshed TTL, or a fencing error (ErrNotLeased /
// ErrStale, both 409 over HTTP) that tells the worker its claim is
// gone and the trajectory must be abandoned.
func (m *Manager) RenewLease(id string, epoch int64) (time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.leasedLocked(id, epoch)
	if err != nil {
		return 0, err
	}
	j.expires = time.Now().Add(m.cfg.LeaseTTL)
	return m.cfg.LeaseTTL, nil
}

// LeaseProgress records a completed MD step reported by the lease
// holder and streams it to the job's subscribers.
func (m *Manager) LeaseProgress(id string, epoch int64, step int, energyHa, tempK float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.leasedLocked(id, epoch)
	if err != nil {
		return err
	}
	j.state.StepsDone = step
	j.state.EnergiesHa = appendBounded(j.state.EnergiesHa, energyHa)
	j.state.TemperaturesK = appendBounded(j.state.TemperaturesK, tempK)
	m.broadcast(j, Event{Type: "step", Status: StatusRunning, Step: step, EnergyHa: energyHa, TempK: tempK})
	return nil
}

// PutLeaseCheckpoint stores an uploaded trajectory checkpoint as the
// job's durable resume point. The body is streamed into a staged
// qio.AtomicFile (a temp no other upload shares) without the manager
// lock; the lease is re-verified under the lock immediately before the
// commit, so a zombie whose lease lapsed while its upload was in flight
// can never clobber the new holder's checkpoint.
func (m *Manager) PutLeaseCheckpoint(id string, epoch int64, r io.Reader) error {
	m.mu.Lock()
	_, err := m.leasedLocked(id, epoch)
	m.mu.Unlock()
	if err != nil {
		return err
	}

	af, err := qio.CreateAtomic(m.root.CheckpointPath(id))
	if err != nil {
		return err
	}
	defer af.Abort()
	if _, err = io.Copy(af, r); err == nil {
		err = af.Stage()
	}
	if err != nil {
		return fmt.Errorf("serve: checkpoint upload for %s: %w", id, err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.leasedLocked(id, epoch); err != nil {
		return err
	}
	if err := af.Commit(); err != nil {
		return fmt.Errorf("serve: checkpoint upload for %s: %w", id, err)
	}
	return nil
}

// OpenLeaseCheckpoint opens the job's stored checkpoint for download by
// the lease holder (the resume path after a requeue).
func (m *Manager) OpenLeaseCheckpoint(id string, epoch int64) (io.ReadCloser, error) {
	m.mu.Lock()
	_, err := m.leasedLocked(id, epoch)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(m.root.CheckpointPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	return f, err
}

// CompleteLease resolves a lease with the holder's terminal report:
// "completed", "failed" and "cancelled" end the job, "released" (drain)
// requeues it for the next holder to resume from the last checkpoint.
// The epoch fence applies here too — a zombie cannot complete a job
// that has been reassigned, nor one the client cancelled under it. A
// completion's results.json is encoded and staged before the manager
// lock is taken and committed under it after the fence, the way
// PutLeaseCheckpoint commits an upload.
func (m *Manager) CompleteLease(id string, req CompleteRequest) (*JobState, error) {
	var results *qio.AtomicFile
	if req.Status == "completed" {
		if results = m.stageResults(id, req.Report.Results); results != nil {
			defer results.Abort()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.leasedLocked(id, req.Epoch)
	if err != nil {
		return nil, err
	}
	j.cancel = nil
	// The report is authoritative: on resumed runs it includes the
	// checkpoint-restored prefix the in-memory record may lack.
	if rep := req.Report; rep.Steps > 0 {
		j.state.StepsDone = rep.Steps
		j.state.SCFIterations = rep.SCFIterations
		j.state.EnergiesHa = boundedTail(rep.EnergiesHa)
		j.state.TemperaturesK = boundedTail(rep.TemperaturesK)
	}
	status, errText := StatusCompleted, ""
	switch req.Status {
	case "completed":
		if results != nil {
			if err := results.Commit(); err != nil {
				m.cfg.Logf("serve: persist results %s: %v", j.id, err)
			}
		}
	case "failed":
		status, errText = StatusFailed, req.Error
	case "cancelled":
		status, errText = StatusCancelled, ErrCancelledByClient.Error()
	case "released":
		m.requeueLocked(j, fmt.Sprintf("released by worker %s", j.state.Worker))
		if m.draining {
			// The daemon is going down with the job parked: end its
			// event streams so their HTTP handlers can return.
			m.finishBroadcast(j)
		}
		return j.state.clone(), nil
	default:
		// The holder is done with the job either way: requeue so it is
		// not stranded, and report the protocol error.
		m.requeueLocked(j, "unknown completion status")
		return nil, fmt.Errorf("serve: unknown completion status %q", req.Status)
	}
	st, err := m.endLocked(j, status, errText)
	if err != nil {
		// The holder did its part; the job is terminal in memory and a
		// restart would rerun it from its checkpoint.
		m.cfg.Logf("serve: persist %s: %v", j.id, err)
	}
	return st, nil
}
