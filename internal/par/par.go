// Package par runs every parallel loop of the solver on one process-wide
// pool — the in-process form of the paper's single band-space-domain
// hierarchy (§3.3, Fig. 4): domains across workers, then bands and grid
// points within a domain, on one set of cores.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs body(lo, hi) over the chunks [k·grain, min((k+1)·grain, n)) of
// [0, n), which depend on n and grain only — never on the processor count
// — so a body writing disjoint outputs per chunk gives the same bits at
// any GOMAXPROCS. The caller runs chunks itself and helpers join only if
// idle when invited: nothing queues, a nested For cannot deadlock, and at
// most the callers plus GOMAXPROCS goroutines are runnable. A panic in a
// chunk skips the chunks not yet started and is raised on the caller once
// the running ones finish. A body capturing nothing, or a method value
// bound once, runs without allocating.
func For(n, grain int, body func(lo, hi int)) {
	grain = max(grain, 1)
	chunks := (n + grain - 1) / grain
	if chunks <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	// Yield once: the GC's mark worker waits for a scheduling point, and
	// loops that never block would let the heap outgrow its goal.
	runtime.Gosched()
	p := current()
	j := jobs.Get().(*job)
	j.body, j.n, j.grain, j.chunks = body, n, grain, int64(chunks)
	j.next.Store(0)
	j.left.Store(int64(chunks))
	j.refs.Store(1)
	j.panicked.Store(nil)
	// Invite a helper per further chunk up to the processor count; a
	// failed send means none is idle.
	for range min(chunks, p.procs) - 1 {
		j.refs.Add(1)
		select {
		case p.invite <- j:
			continue
		default:
			j.refs.Add(-1)
		}
		break
	}
	if !j.work() {
		<-j.done
	}
	r := j.panicked.Load()
	j.release()
	if r != nil {
		panic(r.v)
	}
}

// Procs is the processor count (GOMAXPROCS) the pool follows.
func Procs() int { return runtime.GOMAXPROCS(0) }

// job is one For call, shared by its caller and the helpers that took it.
type job struct {
	body     func(lo, hi int)
	n, grain int
	chunks   int64
	next     atomic.Int64  // chunks claimed
	left     atomic.Int64  // chunks not finished or skipped
	refs     atomic.Int32  // the caller and the helpers holding the job
	done     chan struct{} // a helper that finishes the last chunk wakes the caller
	panicked atomic.Pointer[recovered]
}

type recovered struct{ v any }

var jobs = sync.Pool{New: func() any { return &job{done: make(chan struct{}, 1)} }}

// work runs chunks until none is left and reports if it ran the last one.
func (j *job) work() (last bool) {
	defer func() {
		if r := recover(); r != nil {
			j.panicked.CompareAndSwap(nil, &recovered{r})
			skipped := max(0, j.chunks-j.next.Swap(j.chunks))
			last = j.left.Add(-1-skipped) == 0
		}
	}()
	for {
		k := j.next.Add(1) - 1
		if k >= j.chunks {
			return false
		}
		lo := int(k) * j.grain
		j.body(lo, min(lo+j.grain, j.n))
		if j.left.Add(-1) == 0 {
			return true
		}
	}
}

func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.body = nil
		jobs.Put(j)
	}
}

// pool is the set of helpers serving one GOMAXPROCS value.
type pool struct {
	procs  int
	invite chan *job     // unbuffered: a send succeeds only if a helper is idle
	quit   chan struct{} // closed when a pool for another GOMAXPROCS takes over
}

var cur atomic.Pointer[pool]

// current returns the pool of the present GOMAXPROCS; a replaced pool's
// helpers finish the job in hand and exit.
func current() *pool {
	procs := runtime.GOMAXPROCS(0)
	old := cur.Load()
	if old != nil && old.procs == procs {
		return old
	}
	p := &pool{procs: procs, invite: make(chan *job), quit: make(chan struct{})}
	if !cur.CompareAndSwap(old, p) {
		return cur.Load() // another caller replaced it first
	}
	if old != nil {
		close(old.quit)
	}
	for range procs {
		go p.serve()
	}
	return p
}

func (p *pool) serve() {
	for {
		select {
		case j := <-p.invite:
			if j.work() {
				j.done <- struct{}{}
			}
			j.release()
		case <-p.quit:
			return
		}
	}
}
