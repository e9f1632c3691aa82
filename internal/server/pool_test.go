package server

import (
	"testing"
	"testing/quick"
)

func TestConnPoolImmediateAcquire(t *testing.T) {
	p := NewConnPool(2)
	ran := 0
	p.Acquire(func() { ran++ })
	p.Acquire(func() { ran++ })
	if ran != 2 || p.InUse() != 2 {
		t.Fatalf("ran=%d inUse=%d", ran, p.InUse())
	}
}

func TestConnPoolWaitsFIFO(t *testing.T) {
	p := NewConnPool(1)
	var order []int
	p.Acquire(func() { order = append(order, 0) })
	p.Acquire(func() { order = append(order, 1) })
	p.Acquire(func() { order = append(order, 2) })
	if p.Waiting() != 2 {
		t.Fatalf("Waiting = %d, want 2", p.Waiting())
	}
	p.Release()
	p.Release()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestConnPoolReleaseBelowZero(t *testing.T) {
	p := NewConnPool(1)
	p.Release() // must not underflow
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", p.InUse())
	}
}

// Property: the pool never has more than size connections in use, and every
// acquire eventually runs exactly once after enough releases.
func TestPropertyConnPoolConservation(t *testing.T) {
	f := func(ops []bool, size uint8) bool {
		p := NewConnPool(int(size%8) + 1)
		ran := 0
		acquired := 0
		for _, acquire := range ops {
			if acquire {
				p.Acquire(func() { ran++ })
				acquired++
			} else {
				p.Release()
			}
			if p.InUse() > p.Size() {
				return false
			}
		}
		// Drain all waiters.
		for p.Waiting() > 0 {
			p.Release()
		}
		return ran == acquired
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConnPoolResizeGrowAdmitsWaiters(t *testing.T) {
	p := NewConnPool(1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		p.Acquire(func() { order = append(order, i) })
	}
	if len(order) != 1 || p.Waiting() != 3 {
		t.Fatalf("order = %v, waiting = %d; want 1 admitted, 3 queued", order, p.Waiting())
	}
	p.Resize(3)
	// Growing to 3 admits the two oldest waiters, FIFO.
	if got, want := len(order), 3; got != want {
		t.Fatalf("admitted %d after grow, want %d (order %v)", got, want, order)
	}
	for i, want := range []int{0, 1, 2} {
		if order[i] != want {
			t.Fatalf("order = %v, want FIFO admission", order)
		}
	}
	if p.InUse() != 3 || p.Waiting() != 1 {
		t.Fatalf("inUse = %d, waiting = %d; want 3 and 1", p.InUse(), p.Waiting())
	}
	p.Release() // hands to the last waiter
	if len(order) != 4 || p.InUse() != 3 {
		t.Fatalf("after release: order = %v, inUse = %d", order, p.InUse())
	}
}

func TestConnPoolResizeShrinkRetiresOnRelease(t *testing.T) {
	p := NewConnPool(3)
	for i := 0; i < 3; i++ {
		p.Acquire(func() {})
	}
	waited := false
	p.Acquire(func() { waited = true })
	p.Resize(1)
	if p.InUse() != 3 {
		t.Fatalf("resize revoked a held connection: inUse = %d", p.InUse())
	}
	// Above capacity: releases retire connections instead of serving the
	// waiter.
	p.Release()
	p.Release()
	if waited || p.InUse() != 1 {
		t.Fatalf("waited = %v, inUse = %d; want waiter still queued at capacity", waited, p.InUse())
	}
	// At capacity: the next release hands its connection to the waiter.
	p.Release()
	if !waited || p.InUse() != 1 {
		t.Fatalf("waited = %v, inUse = %d; want waiter served, pool full", waited, p.InUse())
	}
}

func TestConnPoolResizeClampsToOne(t *testing.T) {
	p := NewConnPool(2)
	p.Resize(0)
	if p.Size() != 1 {
		t.Fatalf("size = %d, want 1", p.Size())
	}
	p.Resize(-5)
	if p.Size() != 1 {
		t.Fatalf("size = %d, want 1", p.Size())
	}
}
