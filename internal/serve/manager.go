package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ldcdft/internal/qio"
)

// Sentinel errors of the admission/lifecycle API. The HTTP layer maps
// them to status codes (429, 503, 404, 409).
var (
	// ErrQueueFull rejects a submission when the pending queue is at
	// capacity — the admission-control backpressure signal.
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrShuttingDown rejects submissions during graceful drain.
	ErrShuttingDown = errors.New("serve: daemon is shutting down")
	// ErrNotFound marks an unknown job ID.
	ErrNotFound = errors.New("serve: job not found")
	// ErrAlreadyFinished rejects cancellation of a terminal job.
	ErrAlreadyFinished = errors.New("serve: job already finished")

	// ErrCancelledByClient is the cancellation cause of DELETE'd jobs.
	ErrCancelledByClient = errors.New("serve: job cancelled by client")
	// errShutdownCause is the cancellation cause of graceful drain; jobs
	// interrupted by it are requeued (not terminal) so a restarted
	// daemon resumes them from their checkpoints.
	errShutdownCause = errors.New("serve: interrupted by daemon shutdown")
)

// Config configures a Manager.
type Config struct {
	// DataDir is the durable job store root (spec/state JSON and
	// checkpoints live under DataDir/jobs/<id>/).
	DataDir string
	// QueueCap bounds the pending queue (running jobs excluded);
	// submissions beyond it get ErrQueueFull. 0 = 16.
	QueueCap int
	// Workers is the number of in-process trajectory slots. 0 = 2.
	// Ignored when Distributed.
	Workers int
	// Runner executes trajectories; nil = QMDRunner (the real engine).
	Runner Runner
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// RetainAge, when positive, prunes terminal jobs whose FinishedAt
	// is older than this from the store (directory removed, ID
	// forgotten). See gc.go.
	RetainAge time.Duration
	// RetainMaxJobs, when positive, bounds the number of terminal jobs
	// kept in the store; the oldest-finished are pruned first.
	RetainMaxJobs int

	// Distributed decides one thing: whether the manager starts its
	// Workers in-process slots. Every job in every mode runs under a
	// lease (Acquire → LeaseProgress → CompleteLease, see coord.go);
	// a Distributed manager — the coordinator — holds none itself and
	// leaves them all to worker nodes on the HTTP lease API (see
	// Handler), which may attach to a non-Distributed manager too.
	// A node's lease that expires — crash, partition, SIGKILL — is
	// requeued and resumed bit-for-bit from the last uploaded
	// checkpoint; a zombie's late calls are fenced by the lease epoch.
	Distributed bool
	// LeaseTTL is how long a worker node may go without renewing
	// before its job is requeued. 0 = 15s. In-process slots hold their
	// leases without expiry.
	LeaseTTL time.Duration
}

// job is the manager-internal record: persisted state plus scheduling
// bookkeeping. All fields are guarded by the manager lock.
//
// It is also the lease: a job is leased exactly while state.Status is
// StatusRunning, under state.LeaseEpoch, held by state.Worker (see
// coord.go for the fence).
type job struct {
	id       string
	seq      int64
	spec     JobSpec
	dir      string
	state    JobState
	queueIdx int                     // heap index; -1 when not queued
	cancel   context.CancelCauseFunc // non-nil while an in-process slot runs it
	expires  time.Time               // a worker node's lease deadline; slots have none
	subs     map[chan Event]struct{}
}

// Manager owns the job store and the bounded priority queue, and leases
// every job it runs. It is created over a (possibly non-empty) data
// directory: jobs found on disk are reloaded, and non-terminal ones are
// requeued so interrupted trajectories resume from their checkpoints.
type Manager struct {
	cfg  Config
	root *qio.JobRoot

	// stop is closed when draining is set: it ends the expiry scan and
	// cuts short a slot's retry back-off.
	stop chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	queue    jobQueue
	seq      int64
	draining bool
	// admitting counts Submits between taking their ID and enqueueing
	// the job; each holds a queue slot meanwhile.
	admitting int

	// finished maps a reuseKey to the newest completed LDC job with
	// that key: the source whose final checkpoint a resubmission
	// starts from (see Submit).
	finished map[string]*job

	submitted int64
	reused    int64
	ended     map[Status]int64 // terminal transitions, by final status
	rejected  int64
	pruned    int64

	leasesGranted int64
	leasesExpired int64
	staleRejected int64

	wg sync.WaitGroup
}

// NewManager opens (creating if needed) the job store at cfg.DataDir,
// recovers persisted jobs — requeueing every non-terminal one — and
// starts the lease-expiry scan plus, unless cfg.Distributed, the
// in-process slots.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 16
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Runner == nil {
		cfg.Runner = QMDRunner{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	root, err := qio.OpenJobRoot(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	m := &Manager{
		cfg:      cfg,
		root:     root,
		jobs:     make(map[string]*job),
		finished: make(map[string]*job),
		ended:    make(map[Status]int64),
		stop:     make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	if err := m.recover(); err != nil {
		return nil, err
	}
	m.wg.Add(1)
	go m.expireLoop()
	if !cfg.Distributed {
		for i := 0; i < cfg.Workers; i++ {
			m.wg.Add(1)
			go m.slot(fmt.Sprintf("local/%d", i))
		}
	}
	return m, nil
}

// recover reloads every job directory. Terminal jobs become queryable
// history; queued and interrupted-while-running jobs are requeued in
// their original admission order (the seq embedded in the ID), so a
// restarted daemon picks up exactly where the killed one left off.
func (m *Manager) recover() error {
	ids, err := m.root.List()
	if err != nil {
		return err
	}
	for _, id := range ids {
		dir, err := m.root.JobDir(id)
		if err != nil {
			return err
		}
		qio.RemoveTemps(dir) // what a killed daemon was in the middle of writing
		j := &job{id: id, dir: dir, queueIdx: -1, subs: make(map[chan Event]struct{})}
		// Advance the ID sequence past every directory — including ones
		// skipped below for unreadable specs — so a later Submit can never
		// mint a colliding ID and silently overwrite a job's directory.
		if n, ok := seqOfID(id); ok {
			j.seq = n
			if n > m.seq {
				m.seq = n
			}
		}
		f, err := os.Open(filepath.Join(dir, qio.JobSpecFile))
		if err == nil {
			j.spec, err = DecodeSpec(f)
			f.Close()
		}
		if err != nil {
			m.cfg.Logf("serve: skipping job %s: unreadable spec: %v", id, err)
			continue
		}
		if err := qio.ReadJSONFile(filepath.Join(dir, qio.JobStateFile), &j.state); err != nil {
			// Crash between spec and state writes: treat as freshly queued.
			j.state = JobState{ID: id, Name: j.spec.Name, Status: StatusQueued,
				Priority: j.spec.Priority, Steps: j.spec.Steps}
		}
		m.jobs[id] = j
		m.rememberLocked(j)
		if !j.state.Status.Terminal() {
			if j.state.Status != StatusQueued {
				m.cfg.Logf("serve: requeueing interrupted job %s (was %s, %d steps done)",
					id, j.state.Status, j.state.StepsDone)
				j.state.Status = StatusQueued
				// The lease died with the daemon; the persisted
				// epoch survives so the next grant still fences any
				// zombie holding a pre-crash lease.
				j.state.Worker = ""
				if err := m.persistState(j); err != nil {
					return err
				}
			}
			m.queue.push(j)
		}
	}
	// Enforce retention over the recovered history before serving: a
	// daemon restarted with tighter bounds trims the store immediately.
	m.maybePruneLocked()
	return nil
}

// seqOfID parses the admission sequence out of a generated job ID
// ("j%08d").
func seqOfID(id string) (int64, bool) {
	if !strings.HasPrefix(id, "j") {
		return 0, false
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	return n, err == nil
}

// Submit validates, persists, and enqueues a job, returning its initial
// state. ErrQueueFull and ErrShuttingDown signal admission rejection.
//
// The manager lock is held only to admit and to publish: admission
// checks draining, reserves a queue slot and takes the ID; spec.json
// (and a reused checkpoint, below) are written without the lock; then
// state.json is persisted and the job enqueued under it. A drain that
// began meanwhile wins: the job's directory is removed and the call
// returns ErrShuttingDown.
//
// An LDC job whose spec differs from a completed job's only in name,
// priority, steps and checkpoint cadence, and asks for no fewer steps,
// starts from a copy of that job's final checkpoint: StepsDone is the
// checkpoint's step, and the runner resumes there with the density and
// the ρα histories, so the job ends bitwise equal to a cold run of
// itself. An identical resubmission runs no SCF at all. A missing or
// unreadable source checkpoint means a cold start.
func (m *Manager) Submit(spec JobSpec) (*JobState, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid job spec: %w", err)
	}
	var key string
	if spec.EngineKind() == EngineLDC {
		key = reuseKey(spec)
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if m.queue.Len()+m.admitting >= m.cfg.QueueCap {
		m.rejected++
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.admitting++
	m.seq++
	id := fmt.Sprintf("j%08d", m.seq)
	j := &job{
		id: id, seq: m.seq, spec: spec, queueIdx: -1,
		subs: make(map[chan Event]struct{}),
		state: JobState{
			ID: id, Name: spec.Name, Status: StatusQueued, Priority: spec.Priority,
			SubmittedAt: time.Now().UTC(), Steps: spec.Steps,
		},
	}
	src := m.finished[key] // only LDC jobs have a key
	if src != nil && src.spec.Steps > spec.Steps {
		src = nil
	}
	m.mu.Unlock()

	reused, err := m.writeJob(j, src)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.admitting--
	if err == nil && m.draining {
		err = ErrShuttingDown
	}
	if err == nil {
		err = m.persistState(j)
	}
	if err != nil {
		if j.dir != "" {
			os.RemoveAll(j.dir)
		}
		return nil, err
	}
	if reused {
		m.reused++
	}
	m.jobs[j.id] = j
	m.queue.push(j)
	m.submitted++
	m.cond.Signal()
	return j.state.clone(), nil
}

// writeJob creates j's directory and writes its spec.json and, from
// src when it is non-nil, its starting checkpoint — the part of Submit
// done without the manager lock; it reports whether the checkpoint was
// reused. Only Submit knows j yet, and src's final checkpoint is no
// longer written; a src pruned meanwhile means a cold start.
func (m *Manager) writeJob(j *job, src *job) (reused bool, err error) {
	if j.dir, err = m.root.JobDir(j.id); err != nil {
		return false, err
	}
	if err := qio.WriteJSONFile(filepath.Join(j.dir, qio.JobSpecFile), &j.spec); err != nil {
		return false, err
	}
	if src == nil {
		return false, nil
	}
	step, err := copyCheckpoint(m.root.CheckpointPath(src.id), m.root.CheckpointPath(j.id))
	if err != nil {
		m.cfg.Logf("serve: job %s starts cold: checkpoint of job %s: %v", j.id, src.id, err)
		return false, nil
	}
	j.state.StepsDone = step
	m.cfg.Logf("serve: job %s starts at step %d from job %s's checkpoint", j.id, step, src.id)
	return true, nil
}

// reuseKey is spec with its name, priority, steps and checkpoint cadence
// cleared: two LDC specs with one key run the same trajectory, step for
// step and bit for bit, for as long as both run.
func reuseKey(spec JobSpec) string {
	spec.Name, spec.Priority, spec.Steps, spec.CheckpointEvery = "", 0, 0, 0
	key, _ := json.Marshal(spec) // a JobSpec always encodes
	return string(key)
}

// rememberLocked makes j the source for its reuseKey if it is a
// completed LDC job that finished no earlier than the current one.
// Callers hold the manager lock.
func (m *Manager) rememberLocked(j *job) {
	if j.state.Status != StatusCompleted || j.spec.EngineKind() != EngineLDC {
		return
	}
	key := reuseKey(j.spec)
	if old := m.finished[key]; old == nil || !j.state.FinishedAt.Before(old.state.FinishedAt) {
		m.finished[key] = j
	}
}

// copyCheckpoint copies the checkpoint at src to dst crash-safely and
// returns its step. An src that is missing or does not decode is an
// error, and dst is then left as it was.
func copyCheckpoint(src, dst string) (int, error) {
	ck, err := qio.ReadCheckpoint(src)
	if err != nil {
		return 0, err
	}
	f, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	_, err = qio.WriteFileAtomic(dst, f)
	return ck.Step, err
}

// Get returns a snapshot of the job's state.
func (m *Manager) Get(id string) (*JobState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	return j.state.clone(), nil
}

// List returns snapshots of every known job, in admission order.
func (m *Manager) List() []*JobState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*JobState, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.state.clone())
	}
	// Admission order == seq order == lexical ID order for generated IDs.
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Cancel requests cancellation. A queued job is removed and terminal
// immediately. For a running job it depends on the holder, by what the
// manager can observe of it: an in-process slot registered a cancel func
// with its grant, so its context is cancelled (ErrCancelledByClient as
// the cause) and the job turns terminal once the trajectory stops at
// the next cooperative point, final checkpoint written; a worker node
// is out of reach, so its lease is dropped and the job is terminal at
// once — the node learns of it on its next renew (409) and abandons the
// trajectory, the last uploaded checkpoint is kept for manual resume.
// The returned state is the post-request snapshot.
func (m *Manager) Cancel(id string) (*JobState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	switch {
	case m.queue.remove(j):
		return m.endLocked(j, StatusCancelled, "")
	case j.state.Status != StatusRunning:
		return nil, ErrAlreadyFinished
	case j.cancel != nil:
		j.cancel(ErrCancelledByClient)
		return j.state.clone(), nil
	default:
		return m.endLocked(j, StatusCancelled, ErrCancelledByClient.Error())
	}
}

// Subscribe attaches an event stream to the job: an immediate status
// event, then one event per completed MD step, then a terminal "done"
// event, after which the channel is closed. The returned func detaches
// (safe to call after close). Slow consumers lose intermediate step
// events rather than stalling the trajectory.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Event, 64)
	ch <- Event{Type: "status", Status: j.state.Status, Step: j.state.StepsDone}
	if j.state.Status.Terminal() {
		ch <- doneEvent(j)
		close(ch)
		return ch, func() {}, nil
	}
	j.subs[ch] = struct{}{}
	off := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
	return ch, off, nil
}

func doneEvent(j *job) Event {
	return Event{Type: "done", Status: j.state.Status, Step: j.state.StepsDone, Error: j.state.Error}
}

// broadcast fans an event out to the job's subscribers, dropping it for
// subscribers whose buffer is full. Callers hold the manager lock.
func (m *Manager) broadcast(j *job, ev Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finishBroadcast emits the terminal event and closes every
// subscription. The done event must not be dropped, so a full
// subscriber buffer has its oldest entry evicted first. Callers hold
// the manager lock.
func (m *Manager) finishBroadcast(j *job) {
	for ch := range j.subs {
		ev := doneEvent(j)
		for {
			select {
			case ch <- ev:
			default:
				select {
				case <-ch:
				default:
				}
				continue
			}
			break
		}
		delete(j.subs, ch)
		close(ch)
	}
}

// slot is one in-process lease holder: a worker node minus everything
// a process boundary forces on one. It shares the manager's store, so
// the trajectory checkpoints straight into the job directory; it cannot
// be partitioned from the manager it leases from, so its lease has no
// expiry and needs no heartbeat (a process crash is covered by
// recover()); and its context is within the manager's reach, so Cancel
// and Shutdown interrupt it cooperatively.
func (m *Manager) slot(name string) {
	defer m.wg.Done()
	for {
		ctx, cancel := context.WithCancelCause(context.Background())
		g, err := m.acquire(context.Background(), name, time.Hour, cancel)
		if g == nil { // draining, refused, or an hour without work
			cancel(nil)
			switch {
			case errors.Is(err, ErrShuttingDown):
				return
			case err != nil: // grant not durable; the job is back in the queue
				m.cfg.Logf("serve: slot %s: %v", name, err)
				select {
				case <-time.After(time.Second):
				case <-m.stop:
				}
			}
			continue
		}
		// A progress report can only be fenced after a client cancel,
		// which also cancelled ctx: the run is about to stop anyway.
		rep, err := m.cfg.Runner.Run(ctx, g.Spec, m.root.CheckpointPath(g.JobID),
			func(step int, energyHa, tempK float64) {
				_ = m.LeaseProgress(g.JobID, g.Epoch, step, energyHa, tempK)
			})
		cancel(nil)
		req := CompleteRequest{Worker: name, Epoch: g.Epoch, Status: "completed", Report: rep}
		switch cause := context.Cause(ctx); {
		case err == nil:
		case errors.Is(err, ErrCancelledByClient) || errors.Is(cause, ErrCancelledByClient):
			req.Status = "cancelled"
		case errors.Is(err, errShutdownCause) || errors.Is(cause, errShutdownCause):
			// Not terminal: the checkpoint written on cancellation
			// carries the trajectory and the next daemon resumes it.
			req.Status = "released"
		default:
			req.Status, req.Error = "failed", err.Error()
		}
		if _, err := m.CompleteLease(g.JobID, req); err != nil {
			m.cfg.Logf("serve: slot %s: complete %s: %v", name, g.JobID, err)
		}
	}
}

// endLocked makes j terminal — recorded, persisted, subscriptions closed
// with the done event, retention run — and returns the snapshot taken
// before retention could prune the job, with the persist error; leaving
// StatusRunning ends its lease. Callers hold the manager lock and have
// taken j off the queue if it was queued.
func (m *Manager) endLocked(j *job, status Status, errText string) (*JobState, error) {
	j.state.Status = status
	j.state.Error = errText
	j.state.FinishedAt = time.Now().UTC()
	m.ended[status]++
	err := m.persistState(j)
	m.rememberLocked(j)
	m.cfg.Logf("serve: job %s %s after %d steps (worker %q)",
		j.id, j.state.Status, j.state.StepsDone, j.state.Worker)
	m.finishBroadcast(j)
	st := j.state.clone()
	m.maybePruneLocked()
	return st, err
}

// persistState writes state.json crash-safely. Callers hold the lock.
func (m *Manager) persistState(j *job) error {
	return qio.WriteJSONFile(filepath.Join(j.dir, qio.JobStateFile), &j.state)
}

// requeueLocked puts a leased job back in the pending queue — the
// crash-safe requeue path shared by lease expiry and voluntary release
// (worker or daemon drain). The job keeps its StepsDone and its
// persisted LeaseEpoch (so the next grant's epoch fences the old
// holder) and is resumed from its last checkpoint by whoever leases it
// next. Callers hold the manager lock.
func (m *Manager) requeueLocked(j *job, why string) {
	j.state.Status = StatusQueued
	j.state.Worker = ""
	if err := m.persistState(j); err != nil {
		m.cfg.Logf("serve: persist %s: %v", j.id, err)
	}
	m.queue.push(j)
	m.broadcast(j, Event{Type: "status", Status: StatusQueued, Step: j.state.StepsDone})
	m.cond.Signal()
	m.cfg.Logf("serve: job %s requeued (%s, %d steps done)", j.id, why, j.state.StepsDone)
}

// expireLoop is the lease-expiry scan: a running job whose worker node
// has missed renewals for LeaseTTL is requeued (jobs held by in-process
// slots have no deadline). Scan cadence is a quarter of the TTL so a
// dead worker's job is back in the queue at most ~1.25 TTLs after its
// last heartbeat.
func (m *Manager) expireLoop() {
	defer m.wg.Done()
	period := m.cfg.LeaseTTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-ticker.C:
			m.mu.Lock()
			for _, j := range m.jobs {
				if j.state.Status == StatusRunning && j.cancel == nil && !j.expires.After(now) {
					m.leasesExpired++
					m.requeueLocked(j, fmt.Sprintf("lease expired on worker %s", j.state.Worker))
				}
			}
			m.mu.Unlock()
		}
	}
}

// Counters is a consistent snapshot of the scheduling metrics exported
// at /metrics.
type Counters struct {
	QueueDepth int
	Running    int
	Submitted  int64
	Completed  int64
	Failed     int64
	Cancelled  int64
	Rejected   int64
	Pruned     int64
	// Reused counts jobs admitted with a completed job's checkpoint.
	Reused int64

	// Lease counters. The active leases are Running: a job runs
	// exactly while it is leased.
	LeasesGranted int64
	LeasesExpired int64
	StaleRejected int64
}

// Stats returns the current scheduling counters.
func (m *Manager) Stats() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	running := 0
	for _, j := range m.jobs {
		if j.state.Status == StatusRunning {
			running++
		}
	}
	return Counters{
		QueueDepth: m.queue.Len(),
		Running:    running,
		Submitted:  m.submitted,
		Completed:  m.ended[StatusCompleted],
		Failed:     m.ended[StatusFailed],
		Cancelled:  m.ended[StatusCancelled],
		Rejected:   m.rejected,
		Pruned:     m.pruned,
		Reused:     m.reused,

		LeasesGranted: m.leasesGranted,
		LeasesExpired: m.leasesExpired,
		StaleRejected: m.staleRejected,
	}
}

// Shutdown drains gracefully: admissions stop (ErrShuttingDown), jobs
// running on in-process slots are cancelled with the shutdown cause —
// each writes a final checkpoint and is released back as queued — and
// the call returns when every slot has exited, or with ctx's error on
// timeout. Queued jobs stay persisted and queued for the next daemon;
// jobs leased to worker nodes are left running in the store — their
// workers lose contact, abandon, and the next daemon requeues them on
// recovery.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.stop)
	}
	m.cond.Broadcast()
	for _, j := range m.jobs {
		if j.cancel != nil {
			j.cancel(errShutdownCause)
		}
	}
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", context.Cause(ctx))
	}
}
