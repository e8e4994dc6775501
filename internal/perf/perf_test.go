package perf

import (
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.AddVector(100)
	c.AddScalar(50)
	if c.Total() != 150 || c.vector.Load() != 100 || c.scalar.Load() != 50 {
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
				c.AddVector(1)
				c.AddScalar(2)
			}
		}()
	}
	wg.Wait()
	if v, s := c.vector.Load(), c.scalar.Load(); v != 8000 || s != 16000 {
		t.Fatalf("concurrent counts: %d, %d", v, s)
	}
}
