package par

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var procCounts = []int{1, 2, 4, 8}

// atProcs runs body at each GOMAXPROCS value, restoring the original.
func atProcs(t *testing.T, counts []int, body func(t *testing.T, procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range counts {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) { body(t, procs) })
	}
}

func TestEveryIndexOnce(t *testing.T) {
	atProcs(t, procCounts, func(t *testing.T, _ int) {
		for _, c := range []struct{ n, grain int }{{0, 4}, {1, 1}, {7, 0}, {100, 1}, {100, 7}, {1000, 64}, {5, 100}} {
			hits := make([]int32, c.n)
			For(c.n, c.grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d ran %d times", c.n, c.grain, i, h)
				}
			}
		}
	})
}

// TestChunksIndependentOfProcs: the (lo, hi) pairs a loop is cut into are
// a function of n and grain alone.
func TestChunksIndependentOfProcs(t *testing.T) {
	const n, grain = 1003, 17
	var want [][2]int
	for lo := 0; lo < n; lo += grain {
		want = append(want, [2]int{lo, min(lo+grain, n)})
	}
	atProcs(t, procCounts, func(t *testing.T, _ int) {
		var mu sync.Mutex
		var got [][2]int
		For(n, grain, func(lo, hi int) {
			mu.Lock()
			got = append(got, [2]int{lo, hi})
			mu.Unlock()
		})
		slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
		if !slices.Equal(got, want) {
			t.Fatalf("chunks %v, want %v", got, want)
		}
	})
}

// TestNestedCompletes: loops three levels deep, each chunk long enough
// for helpers to be busy when the inner levels invite them, finish.
func TestNestedCompletes(t *testing.T) {
	atProcs(t, []int{1, 2, 4}, func(t *testing.T, _ int) {
		var leaves atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			For(6, 1, func(int, int) {
				For(5, 1, func(int, int) {
					For(4, 1, func(int, int) {
						time.Sleep(50 * time.Microsecond)
						leaves.Add(1)
					})
				})
			})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("nested For did not complete")
		}
		if got := leaves.Load(); got != 6*5*4 {
			t.Fatalf("%d leaves ran, want %d", got, 6*5*4)
		}
	})
}

// helpers counts the goroutines serving the pool, from a full stack dump.
func helpers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "internal/par.(*pool).serve(")
}

// TestGoroutinesBounded: inside a nested loop the process holds no more
// goroutines than before the pool existed plus GOMAXPROCS — For spawns
// nothing per call, and a resized pool retires its old helpers.
func TestGoroutinesBounded(t *testing.T) {
	atProcs(t, []int{8, 1, 2, 4}, func(t *testing.T, procs int) {
		For(2, 1, func(int, int) {}) // start this processor count's pool
		deadline := time.Now().Add(10 * time.Second)
		for helpers() != procs {
			if time.Now().After(deadline) {
				t.Fatalf("%d pool goroutines, want %d", helpers(), procs)
			}
			time.Sleep(time.Millisecond)
		}
		base := runtime.NumGoroutine() - procs
		var peak atomic.Int64
		For(8, 1, func(int, int) {
			For(8, 1, func(int, int) {
				g := int64(runtime.NumGoroutine())
				for old := peak.Load(); g > old && !peak.CompareAndSwap(old, g); old = peak.Load() {
				}
				time.Sleep(20 * time.Microsecond)
			})
		})
		if got := int(peak.Load()); got > base+procs {
			t.Fatalf("%d goroutines inside a nested loop, want ≤ %d + %d", got, base, procs)
		}
	})
}

// TestPanicReachesCaller: a panic in a chunk — whichever goroutine runs
// it — is raised on the caller, after which the pool still works.
func TestPanicReachesCaller(t *testing.T) {
	atProcs(t, []int{1, 4}, func(t *testing.T, _ int) {
		for _, bad := range []int{0, 5, 31} {
			got := func() (r any) {
				defer func() { r = recover() }()
				For(32, 1, func(lo, _ int) {
					time.Sleep(20 * time.Microsecond)
					if lo == bad {
						panic(fmt.Sprintf("chunk %d", lo))
					}
				})
				return nil
			}()
			if want := fmt.Sprintf("chunk %d", bad); got != want {
				t.Fatalf("recovered %v, want %q", got, want)
			}
		}
		var sum atomic.Int64
		For(100, 3, func(lo, hi int) { sum.Add(int64(hi - lo)) })
		if sum.Load() != 100 {
			t.Fatalf("after a panic the pool covered %d of 100 indices", sum.Load())
		}
	})
}

var sink atomic.Int64

func TestZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	For(64, 4, body) // start the pool
	if a := testing.AllocsPerRun(100, func() { For(64, 4, body) }); a != 0 {
		t.Fatalf("For allocates %.1f objects per call, want 0", a)
	}
	// AllocsPerRun pins GOMAXPROCS to 1; count the helpers' share too.
	atProcs(t, []int{4}, func(t *testing.T, _ int) {
		const runs = 200
		For(64, 4, body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			For(64, 4, body)
		}
		runtime.ReadMemStats(&after)
		if a := (after.Mallocs - before.Mallocs) / runs; a != 0 {
			t.Fatalf("For allocates %d objects per call at GOMAXPROCS 4, want 0", a)
		}
	})
}
