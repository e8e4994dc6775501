package perf

import (
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(100)
	c.Add(50)
	if c.Total() != 150 {
		t.Fatal("counter arithmetic")
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("reset")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
				c.Add(2)
			}
		}()
	}
	wg.Wait()
	if n := c.Total(); n != 24000 {
		t.Fatalf("concurrent count: %d, want 24000", n)
	}
}
