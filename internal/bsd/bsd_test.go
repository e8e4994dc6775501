package bsd

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestPoolRunsAllTasks(t *testing.T) {
	var count atomic.Int64
	p := &Pool{Workers: 4}
	if err := p.RunWorkers(100, func(_, i int) error {
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Fatalf("ran %d tasks", count.Load())
	}
}

func TestPoolPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	p := &Pool{Workers: 3}
	var count atomic.Int64
	err := p.RunWorkers(50, func(_, i int) error {
		count.Add(1)
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if count.Load() != 50 {
		t.Fatal("all tasks should still run")
	}
}

func TestPoolSerialPath(t *testing.T) {
	p := &Pool{Workers: 1}
	order := []int{}
	if err := p.RunWorkers(5, func(_, i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatal("serial path should preserve order")
		}
	}
}
