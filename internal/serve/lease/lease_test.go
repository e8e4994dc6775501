package lease

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestGrantCheckRenewRelease(t *testing.T) {
	tb := NewTable(time.Second)
	now := time.Unix(1000, 0)
	l := tb.Grant("j1", "w1", 1, now)
	if l.ExpiresAt != now.Add(time.Second) {
		t.Fatalf("expiry %v, want %v", l.ExpiresAt, now.Add(time.Second))
	}
	if err := tb.Check("j1", 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Check("j1", 2); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong-epoch check: %v, want ErrStale", err)
	}
	if err := tb.Check("j2", 1); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("unknown-job check: %v, want ErrNotLeased", err)
	}
	r, err := tb.Renew("j1", 1, now.Add(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if r.ExpiresAt != now.Add(1500*time.Millisecond) {
		t.Fatalf("renewed expiry %v", r.ExpiresAt)
	}
	if _, err := tb.Renew("j1", 0, now); !errors.Is(err, ErrStale) {
		t.Fatalf("stale renew: %v, want ErrStale", err)
	}
	tb.Drop("j1")
	if err := tb.Check("j1", 1); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("post-drop check: %v, want ErrNotLeased", err)
	}
}

// A held lease is fenced like a granted one but outlives any TTL, also
// after a renew, while a granted lease beside it expires on schedule.
func TestHoldNeverExpires(t *testing.T) {
	tb := NewTable(time.Second)
	now := time.Unix(1000, 0)
	tb.Hold("local", "local/0", 3)
	tb.Grant("remote", "w1", 1, now)
	if _, err := tb.Renew("local", 3, now); err != nil {
		t.Fatal(err)
	}
	exp := tb.Expired(now.Add(1000 * time.Hour))
	if len(exp) != 1 || exp[0].JobID != "remote" {
		t.Fatalf("expired %v, want only the granted lease", exp)
	}
	if err := tb.Check("local", 3); err != nil {
		t.Fatalf("held lease after the scan: %v", err)
	}
	if err := tb.Check("local", 2); !errors.Is(err, ErrStale) {
		t.Fatalf("stale check on a held lease: %v, want ErrStale", err)
	}
	if tb.Drop("local"); tb.Len() != 0 {
		t.Fatalf("drop: %d leases left", tb.Len())
	}
}

// The zombie-worker scenario end to end: worker A's lease expires, the
// job is re-granted to worker B under the next epoch, and every call A
// makes with its old epoch is rejected.
func TestExpiryFencesOldEpoch(t *testing.T) {
	tb := NewTable(time.Second)
	now := time.Unix(1000, 0)
	tb.Grant("j1", "wA", 1, now)

	// Nothing expires before the TTL elapses.
	if exp := tb.Expired(now.Add(999 * time.Millisecond)); len(exp) != 0 {
		t.Fatalf("premature expiry: %v", exp)
	}
	exp := tb.Expired(now.Add(time.Second))
	if len(exp) != 1 || exp[0].JobID != "j1" || exp[0].Worker != "wA" || exp[0].Epoch != 1 {
		t.Fatalf("expired leases %v", exp)
	}
	if tb.Len() != 0 {
		t.Fatalf("table still holds %d leases", tb.Len())
	}
	// Between expiry and re-grant the old epoch is ErrNotLeased...
	if _, err := tb.Renew("j1", 1, now); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("post-expiry renew: %v, want ErrNotLeased", err)
	}
	// ...and after re-grant it is ErrStale, while the new epoch works.
	tb.Grant("j1", "wB", 2, now.Add(2*time.Second))
	if _, err := tb.Renew("j1", 1, now.Add(2*time.Second)); !errors.Is(err, ErrStale) {
		t.Fatalf("zombie renew: %v, want ErrStale", err)
	}
	if err := tb.Check("j1", 2); err != nil {
		t.Fatalf("new assignee rejected: %v", err)
	}
}

func TestDropIsUnconditional(t *testing.T) {
	tb := NewTable(time.Second)
	tb.Grant("j1", "w1", 7, time.Unix(0, 0))
	tb.Drop("j1")
	tb.Drop("j1") // idempotent
	if err := tb.Check("j1", 7); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("post-drop check: %v", err)
	}
}

// Concurrent grants, renewals, and expiry scans must be race-free and
// keep at most one active lease per job.
func TestConcurrentAccess(t *testing.T) {
	tb := NewTable(50 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("j%d", g%4)
			for i := 0; i < 200; i++ {
				l := tb.Grant(id, fmt.Sprintf("w%d", g), int64(i), time.Now())
				tb.Renew(id, l.Epoch, time.Now())
				tb.Check(id, l.Epoch)
				tb.Expired(time.Now())
			}
		}(g)
	}
	wg.Wait()
	if n := tb.Len(); n > 4 {
		t.Fatalf("%d active leases for 4 job IDs", n)
	}
}
