package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ldcdft/internal/qio"
)

// errLeaseLost cancels a worker's trajectory when the coordinator
// fences it off (409 on renew/upload) or stays unreachable past the
// TTL: the job has been — or is about to be — reassigned, so the only
// correct move is to abandon it silently. The coordinator's copy of the
// last uploaded checkpoint carries the trajectory forward.
var errLeaseLost = errors.New("serve: lease lost")

// Deadlines of the worker's calls to the coordinator: a small JSON
// exchange, and a checkpoint transfer.
const (
	callTimeout       = 15 * time.Second
	checkpointTimeout = 30 * time.Second
)

// WorkerConfig configures a worker node.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name identifies this node in leases, job states, and logs.
	Name string
	// Slots is the number of jobs leased and run concurrently. 0 = 1.
	Slots int
	// WorkDir is the local scratch root for per-job checkpoints. "" =
	// a temporary directory.
	WorkDir string
	// Runner executes trajectories; nil = QMDRunner (the real engine).
	Runner Runner
	// PollWait is the acquire long-poll duration. 0 = 30s.
	PollWait time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Worker is a worker node of the distributed serving layer: it leases
// jobs from a coordinator, runs them through a Runner with local
// checkpointing, heartbeats the lease, uploads checkpoints at step
// boundaries so the coordinator always holds the latest resumable
// state, and reports completion. Run blocks until the context is
// cancelled; cancellation drains cooperatively — each in-flight
// trajectory stops at the next step boundary, uploads its final
// checkpoint, and releases its lease so the coordinator requeues the
// job immediately instead of waiting out the TTL.
type Worker struct {
	cfg    WorkerConfig
	client *Client
	runner Runner
}

// NewWorker validates the configuration and prepares the scratch
// directory.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("serve: worker requires a coordinator URL")
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("serve: worker requires a name")
	}
	if cfg.Slots == 0 {
		cfg.Slots = 1
	}
	if cfg.PollWait == 0 {
		cfg.PollWait = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.WorkDir == "" {
		dir, err := os.MkdirTemp("", "qmdd-worker-")
		if err != nil {
			return nil, err
		}
		cfg.WorkDir = dir
	} else if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	w := &Worker{cfg: cfg, client: NewClient(cfg.Coordinator), runner: cfg.Runner}
	if w.runner == nil {
		w.runner = QMDRunner{}
	}
	return w, nil
}

// Run operates the node's lease slots until ctx is cancelled, then
// waits for every in-flight job to drain (final checkpoint uploaded,
// lease released).
func (w *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for s := 0; s < w.cfg.Slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.slotLoop(ctx, slot)
		}(s)
	}
	wg.Wait()
	return nil
}

// slotLoop is one lease slot: acquire (long poll), run, repeat.
// Transient coordinator failures back off exponentially up to 5s.
func (w *Worker) slotLoop(ctx context.Context, slot int) {
	backoff := 100 * time.Millisecond
	for ctx.Err() == nil {
		grant, err := w.acquire(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.cfg.Logf("worker %s: acquire: %v (retrying in %s)", w.cfg.Name, err, backoff)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return
			}
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			continue
		}
		backoff = 100 * time.Millisecond
		if grant == nil {
			continue // long poll elapsed without work
		}
		w.runLease(ctx, grant)
	}
}

// acquire long-polls the coordinator for a lease; (nil, nil) means no
// work was available within the poll window.
func (w *Worker) acquire(ctx context.Context) (*LeaseGrant, error) {
	cctx, cancel := context.WithTimeout(ctx, w.cfg.PollWait+callTimeout)
	defer cancel()
	return w.client.Acquire(cctx, w.cfg.Name, w.cfg.PollWait)
}

// runLease executes one granted job end to end.
func (w *Worker) runLease(ctx context.Context, g *LeaseGrant) {
	jobDir := filepath.Join(w.cfg.WorkDir, g.JobID)
	os.RemoveAll(jobDir) // stale scratch from a previous lease of the same job
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		w.cfg.Logf("worker %s: %s: scratch dir: %v", w.cfg.Name, g.JobID, err)
		w.complete(g, CompleteRequest{Worker: w.cfg.Name, Epoch: g.Epoch, Status: "released"})
		return
	}
	defer os.RemoveAll(jobDir)
	ckPath := filepath.Join(jobDir, qio.JobCheckpointFile)
	if g.HasCheckpoint {
		if err := w.downloadCheckpoint(ctx, g, ckPath); err != nil {
			w.cfg.Logf("worker %s: %s: checkpoint download: %v", w.cfg.Name, g.JobID, err)
			w.complete(g, CompleteRequest{Worker: w.cfg.Name, Epoch: g.Epoch, Status: "released"})
			return
		}
	}

	jctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	renewDone := make(chan struct{})
	go w.renewLoop(jctx, cancel, g, renewDone)

	every := g.Spec.CheckpointCadence()
	w.cfg.Logf("worker %s: running %s (epoch %d, resume at step %d)",
		w.cfg.Name, g.JobID, g.Epoch, g.StepsDone)
	rep, runErr := w.runner.Run(jctx, g.Spec, ckPath, func(step int, energyHa, tempK float64) {
		w.postStep(jctx, g, step, energyHa, tempK)
		// The trajectory driver checkpoints *after* invoking this hook,
		// so at step k the file on disk holds step k-1's state: upload
		// it when k-1 was a checkpoint boundary. The lag costs at most
		// one step of progress on a crash and nothing in correctness —
		// resume from any boundary is bit-for-bit.
		if step > 1 && (step-1)%every == 0 {
			w.uploadCheckpoint(jctx, g, ckPath, cancel)
		}
	})
	cancel(nil)
	<-renewDone

	cause := context.Cause(jctx)
	switch {
	case runErr == nil:
		w.complete(g, CompleteRequest{Worker: w.cfg.Name, Epoch: g.Epoch, Status: "completed", Report: rep})
	case errors.Is(cause, errLeaseLost):
		// Reassigned (or cancelled server-side): abandon without a
		// word — any call we could make is fenced anyway.
		w.cfg.Logf("worker %s: %s: lease lost after %d steps, abandoning", w.cfg.Name, g.JobID, rep.Steps)
	case ctx.Err() != nil:
		// Worker drain: hand the trajectory back. The runner wrote a
		// final checkpoint of the last completed step on cancellation;
		// upload it so the requeued job resumes from exactly there.
		w.uploadCheckpoint(context.Background(), g, ckPath, nil)
		w.complete(g, CompleteRequest{Worker: w.cfg.Name, Epoch: g.Epoch, Status: "released", Report: rep})
		w.cfg.Logf("worker %s: %s: released at step %d for drain", w.cfg.Name, g.JobID, rep.Steps)
	default:
		w.complete(g, CompleteRequest{Worker: w.cfg.Name, Epoch: g.Epoch, Status: "failed",
			Error: runErr.Error(), Report: rep})
	}
}

// renewLoop heartbeats the lease at a third of the TTL. A fencing
// answer (409) or a coordinator unreachable for longer than the TTL
// cancels the trajectory with errLeaseLost.
func (w *Worker) renewLoop(ctx context.Context, cancel context.CancelCauseFunc, g *LeaseGrant, done chan<- struct{}) {
	defer close(done)
	interval := g.TTL / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	lastOK := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			switch err := w.renew(ctx, g); {
			case err == nil:
				lastOK = time.Now()
			case fenced(err):
				cancel(errLeaseLost)
				return
			case time.Since(lastOK) > g.TTL:
				// The coordinator has been unreachable for a full TTL:
				// our lease is expired server-side and the job is being
				// handed to someone else. Stop burning cycles on it.
				w.cfg.Logf("worker %s: %s: no heartbeat for %s, assuming lease expired",
					w.cfg.Name, g.JobID, time.Since(lastOK).Round(time.Millisecond))
				cancel(errLeaseLost)
				return
			}
		}
	}
}

// fenced reports whether the coordinator refused a lease call because
// the lease is gone (409) or the job is (404): the trajectory must be
// abandoned.
func fenced(err error) bool {
	return errors.Is(err, ErrFenced) || errors.Is(err, ErrNotFound)
}

// renew performs one heartbeat; fenced errors mean the lease is gone,
// other errors are transient.
func (w *Worker) renew(ctx context.Context, g *LeaseGrant) error {
	cctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	_, err := w.client.Renew(cctx, g.JobID, g.Epoch)
	return err
}

// postStep reports a completed MD step under the job context (best
// effort: a dropped report only costs live-stream granularity, never
// correctness). A lost lease ends the report at once.
func (w *Worker) postStep(ctx context.Context, g *LeaseGrant, step int, energyHa, tempK float64) {
	cctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	w.client.Step(cctx, g.JobID, g.Epoch, step, energyHa, tempK)
}

// uploadCheckpoint ships the local checkpoint file to the coordinator
// under ctx. Missing file (no step completed yet) is a no-op; a fencing
// rejection cancels the trajectory via cancel when non-nil. Upload
// failures are otherwise tolerated — the coordinator keeps its previous
// (older but equally resumable) checkpoint.
func (w *Worker) uploadCheckpoint(ctx context.Context, g *LeaseGrant, ckPath string, cancel context.CancelCauseFunc) {
	f, err := os.Open(ckPath)
	if err != nil {
		return
	}
	defer f.Close()
	cctx, cancelReq := context.WithTimeout(ctx, checkpointTimeout)
	defer cancelReq()
	switch err := w.client.PutCheckpoint(cctx, g.JobID, g.Epoch, f); {
	case err == nil, ctx.Err() != nil: // uploaded, or the job already ended here
	case fenced(err):
		if cancel != nil {
			cancel(errLeaseLost)
		}
	default:
		w.cfg.Logf("worker %s: %s: checkpoint upload: %v", w.cfg.Name, g.JobID, err)
	}
}

// downloadCheckpoint fetches the coordinator's stored checkpoint to the
// local resume path (atomically, so a torn download is never resumed).
func (w *Worker) downloadCheckpoint(ctx context.Context, g *LeaseGrant, ckPath string) error {
	cctx, cancel := context.WithTimeout(ctx, checkpointTimeout)
	defer cancel()
	body, err := w.client.GetCheckpoint(cctx, g.JobID, g.Epoch)
	if err != nil {
		return err
	}
	defer body.Close()
	_, err = qio.WriteFileAtomic(ckPath, body)
	return err
}

// complete reports the lease's terminal outcome, retrying transient
// failures briefly (a lost completion is not fatal — the lease expires
// and the job requeues — but it wastes a TTL).
func (w *Worker) complete(g *LeaseGrant, req CompleteRequest) {
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		_, err := w.client.Complete(ctx, g.JobID, req)
		cancel()
		if err == nil || fenced(err) {
			return
		}
		time.Sleep(time.Duration(attempt+1) * 200 * time.Millisecond)
	}
	w.cfg.Logf("worker %s: %s: completion report lost; lease will expire", w.cfg.Name, g.JobID)
}
