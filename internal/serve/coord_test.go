package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ldcdft/internal/qio"
	"ldcdft/internal/serve/lease"
	"ldcdft/internal/waitfor"
)

// newCoordinator builds a Manager in Distributed (coordinator) mode:
// no in-process slots, jobs only move when a test leases them.
func newCoordinator(t *testing.T, dir string, ttl time.Duration) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		DataDir: dir, QueueCap: 32, Distributed: true, LeaseTTL: ttl, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustSubmit(t *testing.T, m *Manager, spec JobSpec) *JobState {
	t.Helper()
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("submit %s: %v", spec.Name, err)
	}
	return st
}

func mustAcquire(t *testing.T, m *Manager, worker string) *LeaseGrant {
	t.Helper()
	g, err := m.Acquire(context.Background(), worker, 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if g == nil {
		t.Fatal("acquire: no job available")
	}
	return g
}

// The coordinator's pick is priority first, then largest estimated
// remaining cost — not submission order.
func TestAcquireCostAwarePick(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), time.Minute)
	defer shutdown(t, m)
	small := validSpec("small", 2)
	big := validSpec("big", 10)
	pri := validSpec("pri", 1)
	pri.Priority = 3
	mustSubmit(t, m, small)
	mustSubmit(t, m, big)
	mustSubmit(t, m, pri)

	var order []string
	for i := 0; i < 3; i++ {
		order = append(order, mustAcquire(t, m, "w1").Spec.Name)
	}
	want := []string{"pri", "big", "small"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
	if g, err := m.Acquire(context.Background(), "w1", 0); err != nil || g != nil {
		t.Fatalf("empty queue acquire: got (%v, %v), want (nil, nil)", g, err)
	}
}

// A long-polling acquire parked on an empty queue wakes as soon as a
// job is submitted.
func TestAcquireLongPollWakesOnSubmit(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), time.Minute)
	defer shutdown(t, m)
	type result struct {
		g   *LeaseGrant
		err error
	}
	got := make(chan result, 1)
	go func() {
		g, err := m.Acquire(context.Background(), "w1", 10*time.Second)
		got <- result{g, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the poller park
	mustSubmit(t, m, validSpec("a", 1))
	select {
	case r := <-got:
		if r.err != nil || r.g == nil || r.g.Spec.Name != "a" {
			t.Fatalf("long poll returned (%+v, %v)", r.g, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll did not wake on submit")
	}
}

// An acquire whose context is cancelled returns promptly with no grant.
func TestAcquireContextCancel(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), time.Minute)
	defer shutdown(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if g, err := m.Acquire(ctx, "w1", time.Minute); err != nil || g != nil {
			t.Errorf("cancelled acquire returned (%v, %v)", g, err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled acquire did not return")
	}
}

// The core fault-tolerance path: a lease whose worker goes silent
// expires and the job is requeued; the next grant carries a higher
// epoch, and every call presenting the dead worker's epoch is fenced
// off with ErrStale.
func TestLeaseExpiryRequeuesAndFencesZombie(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), 60*time.Millisecond)
	defer shutdown(t, m)
	st := mustSubmit(t, m, validSpec("a", 5))
	g1 := mustAcquire(t, m, "doomed")
	if g1.Epoch != 1 || g1.HasCheckpoint {
		t.Fatalf("first grant %+v, want epoch 1 and no checkpoint", g1)
	}
	if got, _ := m.Get(st.ID); got.Worker != "doomed" || got.Status != StatusRunning {
		t.Fatalf("leased state %+v", got)
	}

	// No renewals: the expiry scan must requeue the job.
	if !waitfor.Until(5*time.Second, func() bool {
		s, _ := m.Get(st.ID)
		return s.Status == StatusQueued
	}) {
		t.Fatal("expired lease was not requeued")
	}
	if c := m.Stats(); c.LeasesExpired != 1 || c.LeasesActive != 0 || c.Running != 0 {
		t.Fatalf("post-expiry counters %+v", c)
	}

	g2 := mustAcquire(t, m, "fresh")
	if g2.Epoch != g1.Epoch+1 {
		t.Fatalf("re-grant epoch %d, want %d", g2.Epoch, g1.Epoch+1)
	}
	// Keep the new lease alive while poking it with the zombie's epoch.
	if _, err := m.RenewLease(st.ID, g1.Epoch); !errors.Is(err, lease.ErrStale) {
		t.Fatalf("zombie renew: want ErrStale, got %v", err)
	}
	if err := m.PutLeaseCheckpoint(st.ID, g1.Epoch, strings.NewReader("zombie bytes")); !errors.Is(err, lease.ErrStale) {
		t.Fatalf("zombie checkpoint upload: want ErrStale, got %v", err)
	}
	if err := m.LeaseProgress(st.ID, g1.Epoch, 99, 0, 0); !errors.Is(err, lease.ErrStale) {
		t.Fatalf("zombie step report: want ErrStale, got %v", err)
	}
	if _, err := m.CompleteLease(st.ID, CompleteRequest{Worker: "doomed", Epoch: g1.Epoch, Status: "completed"}); !errors.Is(err, lease.ErrStale) {
		t.Fatalf("zombie complete: want ErrStale, got %v", err)
	}
	if c := m.Stats(); c.StaleRejected < 4 {
		t.Fatalf("stale rejections %d, want >= 4", c.StaleRejected)
	}
	// The live holder is unaffected.
	if _, err := m.RenewLease(st.ID, g2.Epoch); err != nil {
		t.Fatalf("live renew rejected: %v", err)
	}
	if _, err := m.CompleteLease(st.ID, CompleteRequest{Worker: "fresh", Epoch: g2.Epoch, Status: "completed",
		Report: RunReport{Steps: 5, EnergiesHa: []float64{-1, -2, -3, -4, -5}, TemperaturesK: []float64{1, 1, 1, 1, 1}}}); err != nil {
		t.Fatalf("live complete: %v", err)
	}
	fin, _ := m.Get(st.ID)
	if fin.Status != StatusCompleted || fin.StepsDone != 5 {
		t.Fatalf("final state %+v", fin)
	}
}

// The same fencing, observed through the HTTP surface: the zombie's
// stale epoch gets 409 on renew, checkpoint upload, and complete.
func TestZombieGets409OverHTTP(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), 50*time.Millisecond)
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	st := mustSubmit(t, m, validSpec("a", 3))
	g1 := mustAcquire(t, m, "doomed")
	if !waitfor.Until(5*time.Second, func() bool {
		s, _ := m.Get(st.ID)
		return s.Status == StatusQueued
	}) {
		t.Fatal("expired lease was not requeued")
	}
	mustAcquire(t, m, "fresh") // bumps the epoch past the zombie's

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := post("/v1/lease/"+st.ID+"/renew", `{"epoch":1}`); code != http.StatusConflict {
		t.Fatalf("zombie renew: status %d, want 409", code)
	}
	if code := post("/v1/lease/"+st.ID+"/steps", `{"epoch":1,"step":9}`); code != http.StatusConflict {
		t.Fatalf("zombie step: status %d, want 409", code)
	}
	if code := post("/v1/lease/"+st.ID+"/complete", `{"epoch":1,"status":"completed"}`); code != http.StatusConflict {
		t.Fatalf("zombie complete: status %d, want 409", code)
	}
	req, _ := http.NewRequest(http.MethodPut,
		srv.URL+"/v1/lease/"+st.ID+"/checkpoint?epoch=1", strings.NewReader("junk"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("zombie checkpoint upload: status %d, want 409", resp.StatusCode)
	}
	_ = g1
}

// Checkpoint upload, download, and the HasCheckpoint flag across a
// release/re-grant cycle.
func TestLeaseCheckpointRoundTrip(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), time.Minute)
	defer shutdown(t, m)
	st := mustSubmit(t, m, validSpec("a", 4))
	g1 := mustAcquire(t, m, "w1")

	payload := []byte("checkpoint payload \x00\x01\x02")
	if err := m.PutLeaseCheckpoint(st.ID, g1.Epoch, bytes.NewReader(payload)); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if err := m.LeaseProgress(st.ID, g1.Epoch, 2, -2, 300); err != nil {
		t.Fatal(err)
	}
	rc, err := m.OpenLeaseCheckpoint(st.ID, g1.Epoch)
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(got, payload) {
		t.Fatalf("checkpoint round trip: got %q, want %q", got, payload)
	}

	// Voluntary release (worker drain) requeues with progress intact.
	if _, err := m.CompleteLease(st.ID, CompleteRequest{Worker: "w1", Epoch: g1.Epoch,
		Status: "released", Report: RunReport{Steps: 2, EnergiesHa: []float64{-1, -2}, TemperaturesK: []float64{300, 300}}}); err != nil {
		t.Fatalf("release: %v", err)
	}
	s, _ := m.Get(st.ID)
	if s.Status != StatusQueued || s.StepsDone != 2 {
		t.Fatalf("released state %+v", s)
	}
	g2 := mustAcquire(t, m, "w2")
	if !g2.HasCheckpoint || g2.StepsDone != 2 || g2.Epoch != g1.Epoch+1 {
		t.Fatalf("re-grant %+v, want checkpoint present, 2 steps done, epoch bumped", g2)
	}
}

// Two uploads for one job under different epochs interleave: the old
// holder's body is still streaming when the job is released and
// re-granted, and the new holder uploads meanwhile. Each upload stages
// into a temp of its own (two temps exist at once), the live epoch's
// bytes are what gets published, the zombie is fenced at its commit, and
// neither leaves its temp behind.
func TestInterleavedUploadsDoNotShareATemp(t *testing.T) {
	dir := t.TempDir()
	m := newCoordinator(t, dir, time.Minute)
	defer shutdown(t, m)
	st := mustSubmit(t, m, validSpec("a", 4))
	temps := func() []string {
		found, _ := filepath.Glob(filepath.Join(dir, "jobs", st.ID, "*.tmp"))
		return found
	}
	// upload starts a PutLeaseCheckpoint whose body stalls after its first
	// half (so the upload is past its first lease check and inside the
	// copy); finish sends the rest and returns the upload's verdict.
	upload := func(epoch int64, body string) (finish func() error) {
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() { done <- m.PutLeaseCheckpoint(st.ID, epoch, pr) }()
		if _, err := pw.Write([]byte(body[:len(body)/2])); err != nil {
			t.Fatal(err)
		}
		return func() error {
			pw.Write([]byte(body[len(body)/2:]))
			pw.Close()
			return <-done
		}
	}

	g1 := mustAcquire(t, m, "old")
	finishOld := upload(g1.Epoch, "bytes of the old holder")
	if _, err := m.CompleteLease(st.ID, CompleteRequest{Worker: "old", Epoch: g1.Epoch, Status: "released"}); err != nil {
		t.Fatal(err)
	}
	g2 := mustAcquire(t, m, "new")
	finishNew := upload(g2.Epoch, "bytes of the new holder")
	if got := temps(); len(got) != 2 {
		t.Fatalf("two uploads in flight stage into %v, want two distinct temps", got)
	}
	if err := finishNew(); err != nil {
		t.Fatalf("live upload: %v", err)
	}
	if err := finishOld(); !errors.Is(err, lease.ErrStale) {
		t.Fatalf("zombie upload: got %v, want ErrStale", err)
	}
	rc, err := m.OpenLeaseCheckpoint(st.ID, g2.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if string(got) != "bytes of the new holder" {
		t.Fatalf("published checkpoint %q", got)
	}
	if left := temps(); left != nil {
		t.Fatalf("temp files left: %v", left)
	}
}

// A coordinator killed mid-upload leaves the upload's temp — as large as a
// checkpoint — in the job directory; the next one to recover the store
// removes it and still requeues the job with its published checkpoint.
func TestRecoveryRemovesOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	m := newCoordinator(t, dir, time.Minute)
	st := mustSubmit(t, m, validSpec("a", 4))
	g := mustAcquire(t, m, "w")
	if err := m.PutLeaseCheckpoint(st.ID, g.Epoch, strings.NewReader("published")); err != nil {
		t.Fatal(err)
	}
	shutdown(t, m)
	ckPath := filepath.Join(dir, "jobs", st.ID, qio.JobCheckpointFile)
	orphan := ckPath + ".0badc0de.tmp"
	if err := os.WriteFile(orphan, []byte("half an upload"), 0o644); err != nil {
		t.Fatal(err)
	}

	m = newCoordinator(t, dir, time.Minute)
	defer shutdown(t, m)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp survived recovery: %v", err)
	}
	if got, err := os.ReadFile(ckPath); err != nil || string(got) != "published" {
		t.Fatalf("published checkpoint after recovery: %q, %v", got, err)
	}
	if g := mustAcquire(t, m, "w2"); g.JobID != st.ID {
		t.Fatalf("recovered job not requeued: granted %s", g.JobID)
	}
}

// A fresh job has no checkpoint to download.
func TestOpenLeaseCheckpointMissing(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), time.Minute)
	defer shutdown(t, m)
	st := mustSubmit(t, m, validSpec("a", 1))
	g := mustAcquire(t, m, "w1")
	if _, err := m.OpenLeaseCheckpoint(st.ID, g.Epoch); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

// Cancelling a leased job is terminal immediately; the worker's next
// call is fenced.
func TestCancelLeasedJob(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), time.Minute)
	defer shutdown(t, m)
	st := mustSubmit(t, m, validSpec("a", 3))
	g := mustAcquire(t, m, "w1")
	cs, err := m.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Status != StatusCancelled {
		t.Fatalf("cancelled state %+v", cs)
	}
	if _, err := m.RenewLease(st.ID, g.Epoch); !errors.Is(err, lease.ErrNotLeased) {
		t.Fatalf("renew after cancel: want ErrNotLeased, got %v", err)
	}
	if c := m.Stats(); c.Cancelled != 1 || c.Running != 0 || c.LeasesActive != 0 {
		t.Fatalf("counters %+v", c)
	}
}

// A standalone manager is a coordinator whose slots are in-process: its
// jobs run under leases like any other, and the lease counters show it.
func TestStandaloneJobRunsUnderLease(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1, 4, &fakeRunner{})
	defer shutdown(t, m)
	st := mustSubmit(t, m, validSpec("a", 3))
	fin := waitStatus(t, m, st.ID, StatusCompleted)
	if fin.LeaseEpoch != 1 || fin.Worker == "" {
		t.Fatalf("standalone job finished with epoch %d, worker %q; want epoch 1 and a slot name",
			fin.LeaseEpoch, fin.Worker)
	}
	if c := m.Stats(); c.LeasesGranted != 1 || c.LeasesExpired != 0 || c.LeasesActive != 0 {
		t.Fatalf("counters %+v, want one lease granted, none expired or active", c)
	}
	var buf bytes.Buffer
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\nqmdd_leases_granted_total 1\n") {
		t.Fatal("standalone /metrics does not export qmdd_leases_granted_total 1")
	}
}

// An in-process slot holds its lease without expiry and without a
// heartbeat: a runner blocked for ten TTLs is neither requeued nor
// re-granted.
func TestInProcessLeaseDoesNotExpire(t *testing.T) {
	const ttl = 50 * time.Millisecond
	gate := make(chan struct{})
	fr := &fakeRunner{started: make(chan string, 4), gate: map[string]chan struct{}{"a": gate}}
	m, err := NewManager(Config{DataDir: t.TempDir(), Workers: 1, Runner: fr, LeaseTTL: ttl, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m)
	st := mustSubmit(t, m, validSpec("a", 2))
	<-fr.started
	time.Sleep(10 * ttl)
	if s, _ := m.Get(st.ID); s.Status != StatusRunning || s.LeaseEpoch != 1 {
		t.Fatalf("after 10 TTLs the job is %s at epoch %d, want running at epoch 1", s.Status, s.LeaseEpoch)
	}
	close(gate)
	if fin := waitStatus(t, m, st.ID, StatusCompleted); fin.LeaseEpoch != 1 {
		t.Fatalf("job finished at epoch %d, want 1", fin.LeaseEpoch)
	}
	if c := m.Stats(); c.LeasesGranted != 1 || c.LeasesExpired != 0 {
		t.Fatalf("counters %+v, want one grant and no expiry", c)
	}
	select {
	case name := <-fr.started:
		t.Fatalf("job %q was started a second time", name)
	default:
	}
}

// holderRunner records which holder ran which job and makes each
// holder's first job wait until both holders have one, so neither can
// drain the queue alone.
type holderRunner struct {
	who   string
	first sync.Once
	both  *sync.WaitGroup
	mu    *sync.Mutex
	ran   map[string][]string // job name → holders that started it
}

func (h *holderRunner) Run(ctx context.Context, spec JobSpec, ckPath string,
	onStep func(int, float64, float64)) (RunReport, error) {
	h.mu.Lock()
	h.ran[spec.Name] = append(h.ran[spec.Name], h.who)
	h.mu.Unlock()
	h.first.Do(func() { h.both.Done(); h.both.Wait() })
	return (&fakeRunner{}).Run(ctx, spec, ckPath, onStep)
}

// A worker node attached over HTTP to a standalone manager shares the
// queue with the local slot: every job completes, each exactly once.
func TestWorkerNodeSharesStandaloneQueue(t *testing.T) {
	var both sync.WaitGroup
	both.Add(2)
	var mu sync.Mutex
	ran := make(map[string][]string)
	m := newTestManager(t, t.TempDir(), 1, 8,
		&holderRunner{who: "slot", both: &both, mu: &mu, ran: ran})
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	_, cancel, done := startWorker(t, srv.URL, "node-a", 1,
		&holderRunner{who: "node", both: &both, mu: &mu, ran: ran})
	defer func() { cancel(); <-done }()

	var ids []string
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		ids = append(ids, mustSubmit(t, m, validSpec(name, 2)).ID)
	}
	workers := make(map[string]int)
	for _, id := range ids {
		fin := waitStatus(t, m, id, StatusCompleted)
		if fin.LeaseEpoch != 1 {
			t.Fatalf("job %s finished at epoch %d, want 1 (leased once)", id, fin.LeaseEpoch)
		}
		workers[fin.Worker]++
	}
	mu.Lock()
	defer mu.Unlock()
	for name, by := range ran {
		if len(by) != 1 {
			t.Fatalf("job %s was started by %v, want exactly one holder", name, by)
		}
	}
	if len(ran) != 6 || len(workers) != 2 || workers["node-a"] == 0 {
		t.Fatalf("%d jobs ran, attributed %v; want six jobs split over the slot and node-a", len(ran), workers)
	}
	if c := m.Stats(); c.Completed != 6 || c.LeasesGranted != 6 || c.LeasesExpired != 0 || c.StaleRejected != 0 {
		t.Fatalf("counters %+v", c)
	}
}

// A holder the manager cannot interrupt loses its job the moment the
// client cancels; its late completion is fenced and changes nothing.
func TestLateCompleteAfterCancelIsFenced(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	fr := &fakeRunner{started: make(chan string, 4), gate: map[string]chan struct{}{"blocker": gate}}
	m := newTestManager(t, t.TempDir(), 1, 4, fr)
	defer shutdown(t, m)
	mustSubmit(t, m, validSpec("blocker", 1))
	<-fr.started // the only local slot is busy: "a" is leased by hand below
	st := mustSubmit(t, m, validSpec("a", 3))
	g := mustAcquire(t, m, "late")
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Get(st.ID)
	if before.Status != StatusCancelled {
		t.Fatalf("cancelled state %+v", before)
	}
	_, err := m.CompleteLease(st.ID, CompleteRequest{Worker: "late", Epoch: g.Epoch, Status: "completed",
		Report: RunReport{Steps: 3, EnergiesHa: []float64{-1, -2, -3}, TemperaturesK: []float64{1, 1, 1}}})
	if !errors.Is(err, lease.ErrNotLeased) {
		t.Fatalf("late complete: want ErrNotLeased, got %v", err)
	}
	after, _ := m.Get(st.ID)
	if after.Status != StatusCancelled || after.StepsDone != before.StepsDone ||
		!after.FinishedAt.Equal(before.FinishedAt) || len(after.EnergiesHa) != 0 {
		t.Fatalf("late complete changed the job: %+v → %+v", before, after)
	}
	if c := m.Stats(); c.Completed != 0 || c.Cancelled != 1 || c.StaleRejected != 1 {
		t.Fatalf("counters %+v", c)
	}
}

// breakJobDir makes every write into the job's directory fail (a file
// where the directory was — unlike a chmod, root cannot write through
// it) and returns the repair.
func breakJobDir(t *testing.T, dataDir, id string) (repair func()) {
	t.Helper()
	dir := filepath.Join(dataDir, "jobs", id)
	if err := os.Rename(dir, dir+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		if err := os.Remove(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(dir+".away", dir); err != nil {
			t.Fatal(err)
		}
	}
}

// A lease is granted only under an epoch the store remembers: when
// state.json cannot be written the acquire fails (503 over HTTP), the
// job is queued exactly as before, and the next grant after a restart
// is still past every epoch ever handed out.
func TestGrantRefusedWhenEpochNotPersisted(t *testing.T) {
	dir := t.TempDir()
	m := newCoordinator(t, dir, time.Minute)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	st := mustSubmit(t, m, validSpec("a", 3))
	repair := breakJobDir(t, dir, st.ID)

	if g, err := m.Acquire(context.Background(), "w1", 0); !errors.Is(err, errEpochNotPersisted) || g != nil {
		t.Fatalf("acquire on an unwritable job: got (%+v, %v), want errEpochNotPersisted", g, err)
	}
	resp, err := http.Post(srv.URL+"/v1/lease", "application/json", strings.NewReader(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("acquire over HTTP: status %d, want 503", resp.StatusCode)
	}
	s, _ := m.Get(st.ID)
	if s.Status != StatusQueued || s.LeaseEpoch != 0 || s.Worker != "" || !s.StartedAt.IsZero() {
		t.Fatalf("refused grant left state %+v, want the queued job untouched", s)
	}
	if c := m.Stats(); c.QueueDepth != 1 || c.LeasesGranted != 0 || c.LeasesActive != 0 {
		t.Fatalf("counters %+v", c)
	}

	repair()
	g1 := mustAcquire(t, m, "w1")
	if g1.Epoch != 1 {
		t.Fatalf("first durable grant has epoch %d, want 1", g1.Epoch)
	}
	shutdown(t, m)
	m2 := newCoordinator(t, dir, time.Minute)
	defer shutdown(t, m2)
	if g2 := mustAcquire(t, m2, "w2"); g2.Epoch <= g1.Epoch {
		t.Fatalf("post-restart epoch %d not past %d", g2.Epoch, g1.Epoch)
	}
}

// An in-process slot that is refused a grant backs off and retries; the
// job runs once the store is writable again.
func TestSlotRetriesRefusedGrant(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	fr := &fakeRunner{started: make(chan string, 4), gate: map[string]chan struct{}{"blocker": gate}}
	m := newTestManager(t, dir, 1, 4, fr)
	defer shutdown(t, m)
	blocker := mustSubmit(t, m, validSpec("blocker", 1))
	<-fr.started
	st := mustSubmit(t, m, validSpec("a", 2))
	repair := breakJobDir(t, dir, st.ID)
	close(gate) // the slot finishes the blocker and is refused "a"
	waitStatus(t, m, blocker.ID, StatusCompleted)
	time.Sleep(50 * time.Millisecond)
	if s, _ := m.Get(st.ID); s.Status != StatusQueued || s.LeaseEpoch != 0 {
		t.Fatalf("job on an unwritable directory is %s at epoch %d, want queued at 0", s.Status, s.LeaseEpoch)
	}
	repair()
	if fin := waitStatus(t, m, st.ID, StatusCompleted); fin.LeaseEpoch != 1 || fin.StepsDone != 2 {
		t.Fatalf("retried job finished %+v, want epoch 1 and 2 steps", fin)
	}
}

// Epochs survive a coordinator restart: a zombie from before the crash
// is still fenced by the recovered job's next grant.
func TestEpochFencingSurvivesCoordinatorRestart(t *testing.T) {
	dir := t.TempDir()
	m := newCoordinator(t, dir, time.Minute)
	st := mustSubmit(t, m, validSpec("a", 3))
	g1 := mustAcquire(t, m, "old-worker")
	shutdown(t, m)

	m2 := newCoordinator(t, dir, time.Minute)
	defer shutdown(t, m2)
	s, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusQueued || s.Worker != "" {
		t.Fatalf("recovered state %+v, want requeued with no worker", s)
	}
	g2 := mustAcquire(t, m2, "new-worker")
	if g2.Epoch <= g1.Epoch {
		t.Fatalf("post-restart epoch %d not past pre-crash epoch %d", g2.Epoch, g1.Epoch)
	}
	if _, err := m2.RenewLease(st.ID, g1.Epoch); !errors.Is(err, lease.ErrStale) {
		t.Fatalf("pre-crash zombie renew: want ErrStale, got %v", err)
	}
}

// --- worker-node integration (in-process coordinator over httptest) ---

func startWorker(t *testing.T, url, name string, slots int, r Runner) (*Worker, context.CancelFunc, chan struct{}) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: url, Name: name, Slots: slots, WorkDir: filepath.Join(t.TempDir(), name),
		Runner: r, PollWait: 200 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	return w, cancel, done
}

// Happy path: a worker node leases, runs, streams steps, and completes
// jobs end to end over HTTP.
func TestWorkerNodeEndToEnd(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), time.Minute)
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	_, cancel, done := startWorker(t, srv.URL, "node-a", 2, &fakeRunner{})
	defer func() { cancel(); <-done }()

	var ids []string
	for _, name := range []string{"a", "b", "c"} {
		ids = append(ids, mustSubmit(t, m, validSpec(name, 3)).ID)
	}
	for _, id := range ids {
		fin := waitStatus(t, m, id, StatusCompleted)
		if fin.StepsDone != 3 || len(fin.EnergiesHa) != 3 || fin.EnergiesHa[2] != -3 {
			t.Fatalf("job %s final record %+v", id, fin)
		}
		if fin.Worker != "node-a" {
			t.Fatalf("job %s attributed to worker %q", id, fin.Worker)
		}
	}
	if c := m.Stats(); c.Completed != 3 || c.LeasesGranted != 3 || c.LeasesActive != 0 {
		t.Fatalf("counters %+v", c)
	}
}

// A failing trajectory is reported as failed, not retried forever.
func TestWorkerNodeReportsFailure(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), time.Minute)
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	_, cancel, done := startWorker(t, srv.URL, "node-a", 1, failingRunner{})
	defer func() { cancel(); <-done }()

	st := mustSubmit(t, m, validSpec("a", 3))
	if !waitfor.Until(10*time.Second, func() bool {
		s, _ := m.Get(st.ID)
		return s.Status == StatusFailed
	}) {
		s, _ := m.Get(st.ID)
		t.Fatalf("job stuck at %s, want failed", s.Status)
	}
	s, _ := m.Get(st.ID)
	if !strings.Contains(s.Error, "synthetic failure") {
		t.Fatalf("failure error %q", s.Error)
	}
}

type failingRunner struct{}

func (failingRunner) Run(ctx context.Context, spec JobSpec, ckPath string,
	onStep func(int, float64, float64)) (RunReport, error) {
	return RunReport{}, errors.New("synthetic failure")
}

// Draining a worker (context cancel) releases its in-flight job back to
// the queue, where a second worker picks it up and finishes it.
func TestWorkerDrainReleasesJob(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), time.Minute)
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	gate := make(chan struct{})
	fr := &fakeRunner{started: make(chan string, 4), gate: map[string]chan struct{}{"a": gate}}
	_, cancel1, done1 := startWorker(t, srv.URL, "node-a", 1, fr)
	st := mustSubmit(t, m, validSpec("a", 3))
	<-fr.started // node-a holds the lease and is parked on the gate

	cancel1() // drain: the fake reports 1 step done on interruption
	select {
	case <-done1:
	case <-time.After(10 * time.Second):
		t.Fatal("draining worker did not exit")
	}
	if !waitfor.Until(5*time.Second, func() bool {
		s, _ := m.Get(st.ID)
		return s.Status == StatusQueued
	}) {
		s, _ := m.Get(st.ID)
		t.Fatalf("released job stuck at %s, want queued", s.Status)
	}
	if s, _ := m.Get(st.ID); s.StepsDone != 1 {
		t.Fatalf("released job records %d steps, want 1", s.StepsDone)
	}

	close(gate) // the second node runs it unobstructed
	_, cancel2, done2 := startWorker(t, srv.URL, "node-b", 1, &fakeRunner{})
	defer func() { cancel2(); <-done2 }()
	fin := waitStatus(t, m, st.ID, StatusCompleted)
	if fin.Worker != "node-b" {
		t.Fatalf("resumed job attributed to %q, want node-b", fin.Worker)
	}
}

// checkpointingRunner writes a tiny checkpoint file per step so the
// worker's upload path actually ships bytes to the coordinator.
type checkpointingRunner struct{ slow time.Duration }

func (c checkpointingRunner) Run(ctx context.Context, spec JobSpec, ckPath string,
	onStep func(int, float64, float64)) (RunReport, error) {
	start := 0
	if raw, err := os.ReadFile(ckPath); err == nil {
		start = len(bytes.TrimRight(raw, "\n")) // one byte per completed step
	}
	var es, ts []float64
	for i := 1; i <= start; i++ {
		es, ts = append(es, -float64(i)), append(ts, 300)
	}
	for i := start + 1; i <= spec.Steps; i++ {
		if ctx.Err() != nil {
			return RunReport{Steps: i - 1, EnergiesHa: es, TemperaturesK: ts}, ctx.Err()
		}
		if c.slow > 0 {
			time.Sleep(c.slow)
		}
		es, ts = append(es, -float64(i)), append(ts, 300)
		onStep(i, -float64(i), 300)
		os.WriteFile(ckPath, bytes.Repeat([]byte("x"), i), 0o644)
	}
	return RunReport{Steps: spec.Steps, EnergiesHa: es, TemperaturesK: ts}, nil
}

// A worker killed mid-job (simulated by abandoning the lease) leaves a
// checkpoint behind; after expiry the job is re-leased and the next
// worker resumes from it rather than from scratch.
func TestWorkerCrashResumeFromUploadedCheckpoint(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), 150*time.Millisecond)
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	spec := validSpec("a", 6)
	spec.CheckpointEvery = 1
	st := mustSubmit(t, m, spec)

	// "Crashed" worker: acquire by hand, upload a 3-step checkpoint,
	// then vanish without renewing.
	g1 := mustAcquire(t, m, "crashed")
	if err := m.LeaseProgress(st.ID, g1.Epoch, 3, -3, 300); err != nil {
		t.Fatal(err)
	}
	if err := m.PutLeaseCheckpoint(st.ID, g1.Epoch, strings.NewReader("xxx")); err != nil {
		t.Fatal(err)
	}
	if !waitfor.Until(5*time.Second, func() bool {
		s, _ := m.Get(st.ID)
		return s.Status == StatusQueued
	}) {
		t.Fatal("orphaned job was not requeued")
	}

	_, cancel, done := startWorker(t, srv.URL, "node-b", 1, checkpointingRunner{})
	defer func() { cancel(); <-done }()
	fin := waitStatus(t, m, st.ID, StatusCompleted)
	if fin.StepsDone != 6 {
		t.Fatalf("resumed job finished at step %d, want 6", fin.StepsDone)
	}
	// The resumed report covers all 6 steps — 3 restored from the
	// checkpoint, 3 freshly computed.
	if len(fin.EnergiesHa) != 6 || fin.EnergiesHa[0] != -1 || fin.EnergiesHa[5] != -6 {
		t.Fatalf("resumed energy series %v", fin.EnergiesHa)
	}
}

// The lease bodies are decoded as strictly as a job spec: an unknown
// field or trailing data is a 400 on every route, before the lease is
// looked at, while the same body without them reaches the lease table.
func TestLeaseBodiesAreStrict(t *testing.T) {
	m := newCoordinator(t, t.TempDir(), time.Minute)
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	st := mustSubmit(t, m, validSpec("a", 3))
	g := mustAcquire(t, m, "w")
	epoch := strconv.FormatInt(g.Epoch, 10)

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	for _, c := range []struct {
		path, body string // body is a JSON object without its closing brace
		want       int
	}{
		{"/v1/lease", `{"worker":"w","wait_seconds":0`, http.StatusNoContent},
		{"/v1/lease/" + st.ID + "/renew", `{"epoch":` + epoch, http.StatusOK},
		{"/v1/lease/" + st.ID + "/steps", `{"epoch":` + epoch + `,"step":1,"energy_ha":-1`, http.StatusNoContent},
		{"/v1/lease/" + st.ID + "/complete", `{"worker":"w","epoch":` + epoch + `,"status":"completed","report":{"steps":3}`, http.StatusOK},
	} {
		for _, bad := range []string{c.body + `,"extra":1}`, c.body + `}{}`, c.body + `} x`} {
			if code := post(c.path, bad); code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", c.path, bad, code)
			}
		}
		if code := post(c.path, c.body+"}\n"); code != c.want {
			t.Errorf("%s %s}: status %d, want %d", c.path, c.body, code, c.want)
		}
	}
}
