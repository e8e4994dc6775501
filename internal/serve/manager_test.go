package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	qmd "ldcdft"
	"ldcdft/internal/waitfor"
)

// fakeRunner is a Runner that never touches the SCF engine: it reports
// each start on started, blocks jobs whose Name has a gate entry until
// the gate closes (or the context cancels), then "runs" spec.Steps
// instant MD steps.
type fakeRunner struct {
	started chan string
	gate    map[string]chan struct{}
}

func (f *fakeRunner) Run(ctx context.Context, spec JobSpec, ckPath string,
	onStep func(step int, energyHa, tempK float64)) (RunReport, error) {
	if f.started != nil {
		f.started <- spec.Name
	}
	if g := f.gate[spec.Name]; g != nil {
		select {
		case <-g:
		case <-ctx.Done():
			return RunReport{Steps: 1, EnergiesHa: []float64{-0.5}, TemperaturesK: []float64{300}},
				fmt.Errorf("fake: interrupted: %w", context.Cause(ctx))
		}
	}
	var es, ts []float64
	for i := 1; i <= spec.Steps; i++ {
		e := -float64(i)
		onStep(i, e, 300)
		es = append(es, e)
		ts = append(ts, 300)
	}
	return RunReport{Steps: spec.Steps, SCFIterations: 3 * spec.Steps, EnergiesHa: es, TemperaturesK: ts}, nil
}

// validSpec is a minimal spec that passes validation (fake runners
// never actually solve it).
func validSpec(name string, steps int) JobSpec {
	return JobSpec{
		Name:  name,
		CellL: 8,
		Atoms: []AtomSpec{{Species: "H", Position: [3]float64{4, 4, 4}}},
		Config: qmd.LDCConfig{
			GridN: 8, DomainsPerAxis: 1, Ecut: 2,
		},
		Steps: steps,
	}
}

// waitStatus polls until the job reaches want (fatal on timeout or on a
// different terminal status).
func waitStatus(t *testing.T, m *Manager, id string, want Status) *JobState {
	t.Helper()
	var st *JobState
	ok := waitfor.Until(10*time.Second, func() bool {
		var err error
		if st, err = m.Get(id); err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if st.Status != want && st.Status.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.Status, st.Error, want)
		}
		return st.Status == want
	})
	if !ok {
		t.Fatalf("job %s stuck at %s, want %s", id, st.Status, want)
	}
	return st
}

func newTestManager(t *testing.T, dir string, workers, cap_ int, r Runner) *Manager {
	t.Helper()
	m, err := NewManager(Config{DataDir: dir, Workers: workers, QueueCap: cap_, Runner: r, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 2, 4, &fakeRunner{})
	defer shutdown(t, m)
	st, err := m.Submit(validSpec("a", 3))
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusQueued || st.ID == "" {
		t.Fatalf("unexpected initial state %+v", st)
	}
	fin := waitStatus(t, m, st.ID, StatusCompleted)
	if fin.StepsDone != 3 || len(fin.EnergiesHa) != 3 || fin.EnergiesHa[2] != -3 {
		t.Fatalf("unexpected final record %+v", fin)
	}
	if c := m.Stats(); c.Submitted != 1 || c.Completed != 1 || c.Running != 0 || c.QueueDepth != 0 {
		t.Fatalf("unexpected counters %+v", c)
	}
}

func TestAdmissionControlRejectsWhenFull(t *testing.T) {
	gate := make(chan struct{})
	fr := &fakeRunner{started: make(chan string, 8), gate: map[string]chan struct{}{"a": gate}}
	m := newTestManager(t, t.TempDir(), 1, 1, fr)
	defer shutdown(t, m)
	a, err := m.Submit(validSpec("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	<-fr.started // a occupies the single worker
	b, err := m.Submit(validSpec("b", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(validSpec("c", 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: want ErrQueueFull, got %v", err)
	}
	if c := m.Stats(); c.Rejected != 1 || c.QueueDepth != 1 || c.Running != 1 {
		t.Fatalf("unexpected counters %+v", c)
	}
	close(gate)
	waitStatus(t, m, a.ID, StatusCompleted)
	waitStatus(t, m, b.ID, StatusCompleted)
	if c := m.Stats(); c.Completed != 2 || c.QueueDepth != 0 || c.Running != 0 {
		t.Fatalf("unexpected final counters %+v", c)
	}
}

// Admission reserves its queue slot before it writes the spec without
// the lock: n concurrent submits to a manager with no slots and
// QueueCap c admit exactly c, reject n − c, and leave c directories.
func TestConcurrentSubmitsAdmitExactlyQueueCap(t *testing.T) {
	const n, c = 24, 5
	dir := t.TempDir()
	m, err := NewManager(Config{DataDir: dir, QueueCap: c, Distributed: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m)
	start := make(chan struct{})
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			<-start
			_, err := m.Submit(validSpec(fmt.Sprintf("s%d", i), 1))
			errs <- err
		}()
	}
	close(start)
	admitted := 0
	for i := 0; i < n; i++ {
		switch err := <-errs; {
		case err == nil:
			admitted++
		case !errors.Is(err, ErrQueueFull):
			t.Fatalf("submit: %v", err)
		}
	}
	st := m.Stats()
	if admitted != c || st.Submitted != c || st.Rejected != n-c || st.QueueDepth != c {
		t.Fatalf("%d admitted, counters %+v; want %d admitted and %d rejected", admitted, st, c, n-c)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "jobs")); err != nil || len(ents) != c {
		t.Fatalf("%d job directories (%v), want %d", len(ents), err, c)
	}
}

// A submit racing Shutdown ends one of two ways: ErrShuttingDown with no
// job directory left, or admitted durably, so the next manager over the
// store recovers the job as queued.
func TestSubmitRacingShutdown(t *testing.T) {
	outcomes := map[bool]int{}
	for trial := 0; trial < 16; trial++ {
		dir := t.TempDir()
		m, err := NewManager(Config{DataDir: dir, QueueCap: 4, Distributed: true})
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			st  *JobState
			err error
		}
		start, done := make(chan struct{}), make(chan result)
		go func() {
			<-start
			st, err := m.Submit(validSpec("racer", 1))
			done <- result{st, err}
		}()
		close(start)
		time.Sleep(time.Duration(trial) * 20 * time.Microsecond) // spread the race over the admission
		shutdown(t, m)
		r := <-done
		switch {
		case errors.Is(r.err, ErrShuttingDown):
			if ents, err := os.ReadDir(filepath.Join(dir, "jobs")); err != nil || len(ents) != 0 {
				t.Fatalf("trial %d: refused submit left %d job directories (%v)", trial, len(ents), err)
			}
		case r.err == nil:
			m2, err := NewManager(Config{DataDir: dir, QueueCap: 4, Distributed: true})
			if err != nil {
				t.Fatal(err)
			}
			st, err := m2.Get(r.st.ID)
			if err != nil || st.Status != StatusQueued {
				t.Fatalf("trial %d: admitted job %s recovered as %+v (%v), want queued", trial, r.st.ID, st, err)
			}
			shutdown(t, m2)
		default:
			t.Fatalf("trial %d: submit: %v", trial, r.err)
		}
		outcomes[r.err == nil]++
	}
	t.Logf("%d admitted, %d refused", outcomes[true], outcomes[false])
}

func TestPriorityOrderFIFOWithinLevel(t *testing.T) {
	gate := make(chan struct{})
	fr := &fakeRunner{started: make(chan string, 8), gate: map[string]chan struct{}{"blocker": gate}}
	m := newTestManager(t, t.TempDir(), 1, 8, fr)
	defer shutdown(t, m)
	if _, err := m.Submit(validSpec("blocker", 1)); err != nil {
		t.Fatal(err)
	}
	<-fr.started
	var last *JobState
	for _, name := range []string{"low1", "low2", "high"} {
		spec := validSpec(name, 1)
		if name == "high" {
			spec.Priority = 5
		}
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	close(gate)
	waitStatus(t, m, last.ID, StatusCompleted)
	var order []string
	for i := 0; i < 3; i++ { // the blocker's start was consumed above
		order = append(order, <-fr.started)
	}
	want := []string{"high", "low1", "low2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	fr := &fakeRunner{started: make(chan string, 8), gate: map[string]chan struct{}{"blocker": gate}}
	m := newTestManager(t, t.TempDir(), 1, 4, fr)
	defer shutdown(t, m)
	if _, err := m.Submit(validSpec("blocker", 1)); err != nil {
		t.Fatal(err)
	}
	<-fr.started
	b, err := m.Submit(validSpec("b", 1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusCancelled {
		t.Fatalf("cancelled queued job has status %s", st.Status)
	}
	if _, err := m.Cancel(b.ID); !errors.Is(err, ErrAlreadyFinished) {
		t.Fatalf("second cancel: want ErrAlreadyFinished, got %v", err)
	}
	if _, err := m.Cancel("j99999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown cancel: want ErrNotFound, got %v", err)
	}
	if c := m.Stats(); c.Cancelled != 1 || c.QueueDepth != 0 {
		t.Fatalf("unexpected counters %+v", c)
	}
}

func TestCancelRunningJob(t *testing.T) {
	gate := make(chan struct{}) // never closed: job only ends via ctx
	fr := &fakeRunner{started: make(chan string, 8), gate: map[string]chan struct{}{"a": gate}}
	m := newTestManager(t, t.TempDir(), 1, 4, fr)
	defer shutdown(t, m)
	a, err := m.Submit(validSpec("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	<-fr.started
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitStatus(t, m, a.ID, StatusCancelled)
	if fin.StepsDone != 1 { // the fake reports one step done at interruption
		t.Fatalf("cancelled job records %d steps", fin.StepsDone)
	}
	if c := m.Stats(); c.Cancelled != 1 || c.Running != 0 {
		t.Fatalf("unexpected counters %+v", c)
	}
}

func TestSubscribeStreamsStepsAndDone(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1, 4, &fakeRunner{})
	defer shutdown(t, m)
	st, err := m.Submit(validSpec("a", 3))
	if err != nil {
		t.Fatal(err)
	}
	events, off, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer off()
	var steps []int
	var done bool
	for ev := range events {
		switch ev.Type {
		case "step":
			steps = append(steps, ev.Step)
		case "done":
			done = true
			if ev.Status != StatusCompleted {
				t.Fatalf("done status %s", ev.Status)
			}
		}
	}
	if !done {
		t.Fatal("stream closed without a done event")
	}
	// Steps may be partially dropped for slow consumers, but whatever
	// arrives must be increasing; with a fast consumer all 3 arrive.
	for i := 1; i < len(steps); i++ {
		if steps[i] <= steps[i-1] {
			t.Fatalf("non-monotonic steps %v", steps)
		}
	}
	// A late subscriber to a terminal job gets status+done immediately.
	events2, off2, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer off2()
	var types []string
	for ev := range events2 {
		types = append(types, ev.Type)
	}
	if len(types) != 2 || types[0] != "status" || types[1] != "done" {
		t.Fatalf("late subscription saw %v, want [status done]", types)
	}
}

func TestShutdownRequeuesRunningAndRecoveryResumes(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{}) // never closed: only shutdown ends the run
	fr := &fakeRunner{started: make(chan string, 8), gate: map[string]chan struct{}{"a": gate}}
	m := newTestManager(t, dir, 1, 4, fr)
	a, err := m.Submit(validSpec("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	<-fr.started
	// One step, so that after the drain (the fake reports a interrupted
	// with 1 of its 2 steps done) both jobs have the same remaining cost
	// and the pick falls through to admission order.
	b, err := m.Submit(validSpec("b", 1))
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, m)
	if _, err := m.Submit(validSpec("c", 1)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: want ErrShuttingDown, got %v", err)
	}

	// Restart over the same store: both jobs recover, requeue in
	// admission order, and run to completion.
	fr2 := &fakeRunner{started: make(chan string, 8)}
	m2 := newTestManager(t, dir, 1, 4, fr2)
	defer shutdown(t, m2)
	waitStatus(t, m2, a.ID, StatusCompleted)
	waitStatus(t, m2, b.ID, StatusCompleted)
	if first := <-fr2.started; first != "a" {
		t.Fatalf("recovered queue ran %q first, want a", first)
	}
	// The admission sequence continues rather than reusing IDs.
	c, err := m2.Submit(validSpec("c", 1))
	if err != nil {
		t.Fatal(err)
	}
	if c.ID <= b.ID {
		t.Fatalf("post-recovery ID %s not after %s", c.ID, b.ID)
	}
}

func TestTerminalJobsSurviveRestartWithoutRequeue(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, 1, 4, &fakeRunner{})
	a, err := m.Submit(validSpec("a", 2))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, a.ID, StatusCompleted)
	shutdown(t, m)

	fr2 := &fakeRunner{started: make(chan string, 8)}
	m2 := newTestManager(t, dir, 1, 4, fr2)
	defer shutdown(t, m2)
	st, err := m2.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusCompleted || len(st.EnergiesHa) != 2 {
		t.Fatalf("recovered terminal state %+v", st)
	}
	select {
	case name := <-fr2.started:
		t.Fatalf("terminal job %q was re-run", name)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1, 4, &fakeRunner{})
	defer shutdown(t, m)
	bad := validSpec("a", 1)
	bad.Atoms[0].Species = "Xx"
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("unknown species accepted")
	}
	bad = validSpec("a", 0)
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("zero steps accepted")
	}
	// Configs the domain decomposition cannot build: refused at
	// admission, not failed by the engine after a lease.
	for _, c := range []qmd.LDCConfig{
		{GridN: 10, DomainsPerAxis: 3, Ecut: 2},          // 10 points do not tile into 3 domains
		{GridN: 8, DomainsPerAxis: 1, BufN: -1, Ecut: 2}, // negative buffer
		{GridN: 12, DomainsPerAxis: 2, BufN: 4, Ecut: 2}, // extended edge 6+2·4 = 14 > 12
	} {
		bad = validSpec("a", 1)
		bad.Config = c
		if _, err := m.Submit(bad); err == nil {
			t.Fatalf("config %+v accepted", c)
		}
	}
	ok := validSpec("a", 1)
	ok.Config = qmd.LDCConfig{GridN: 12, DomainsPerAxis: 2, BufN: 3, Ecut: 2} // edge 12 fits
	if err := ok.Validate(); err != nil {
		t.Fatalf("an extended domain as wide as the cell refused: %v", err)
	}
	if c := m.Stats(); c.Submitted != 0 {
		t.Fatalf("invalid specs counted as submitted: %+v", c)
	}
}

// A job directory whose spec is unreadable must still advance the ID
// sequence on recovery; otherwise the next Submit mints the same ID and
// silently overwrites the skipped job's directory.
func TestRecoverAdvancesSeqPastCorruptSpec(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "jobs", "j00000001")
	if err := os.MkdirAll(corrupt, 0o755); err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(corrupt, "spec.json")
	if err := os.WriteFile(specPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Valid JSON carrying a field this build does not know (a removed
	// mixer option): resuming it without that field would run a
	// different trajectory, so it is skipped like a corrupt spec.
	unknown := filepath.Join(dir, "jobs", "j00000002")
	if err := os.MkdirAll(unknown, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := `{"cell_l":8,"atoms":[{"species":"H","position":[4,4,4]}],` +
		`"config":{"grid_n":8,"domains_per_axis":1,"ecut":2,"pulay":true},"steps":1}`
	if err := os.WriteFile(filepath.Join(unknown, "spec.json"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, dir, 1, 4, &fakeRunner{})
	defer shutdown(t, m)
	if _, err := m.Get("j00000002"); err == nil {
		t.Fatal("a spec with an unknown field was recovered")
	}
	st, err := m.Submit(validSpec("fresh", 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j00000003" {
		t.Fatalf("submitted job got ID %s, want j00000003 (must not collide with the skipped dirs)", st.ID)
	}
	// The skipped directory is untouched — its (corrupt) spec survives
	// for operator inspection.
	raw, err := os.ReadFile(specPath)
	if err != nil || string(raw) != "{not json" {
		t.Fatalf("skipped job's spec was overwritten: %q, %v", raw, err)
	}
}

// Per-step series in JobState are bounded to StateSeriesTail samples,
// both while streaming (onStep) and from the final RunReport.
func TestStateSeriesBoundedTail(t *testing.T) {
	m := newTestManager(t, t.TempDir(), 1, 4, &fakeRunner{})
	defer shutdown(t, m)
	steps := StateSeriesTail + 50
	st, err := m.Submit(validSpec("long", steps))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitStatus(t, m, st.ID, StatusCompleted)
	if fin.StepsDone != steps {
		t.Fatalf("steps done %d, want %d", fin.StepsDone, steps)
	}
	if len(fin.EnergiesHa) != StateSeriesTail || len(fin.TemperaturesK) != StateSeriesTail {
		t.Fatalf("series lengths %d/%d, want the bounded tail %d",
			len(fin.EnergiesHa), len(fin.TemperaturesK), StateSeriesTail)
	}
	// The tail is the most recent window: the fake runner emits -1..-steps.
	if got, want := fin.EnergiesHa[len(fin.EnergiesHa)-1], -float64(steps); got != want {
		t.Fatalf("last energy %g, want %g", got, want)
	}
	if got, want := fin.EnergiesHa[0], -float64(steps-StateSeriesTail+1); got != want {
		t.Fatalf("first retained energy %g, want %g", got, want)
	}
}

// List returns jobs in admission (ID) order regardless of map iteration.
func TestListAdmissionOrder(t *testing.T) {
	gate := make(chan struct{})
	r := &fakeRunner{gate: map[string]chan struct{}{}}
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		r.gate[n] = gate
	}
	m := newTestManager(t, t.TempDir(), 1, 8, r)
	defer shutdown(t, m)
	defer close(gate)
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		if _, err := m.Submit(validSpec(n, 1)); err != nil {
			t.Fatal(err)
		}
	}
	list := m.List()
	if len(list) != 5 {
		t.Fatalf("%d jobs listed, want 5", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("list out of admission order: %s before %s", list[i-1].ID, list[i].ID)
		}
	}
}
