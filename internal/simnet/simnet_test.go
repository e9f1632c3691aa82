package simnet

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"ctqosim/internal/des"
)

// fakeServer admits up to capacity concurrent calls and replies after a
// fixed service delay.
type fakeServer struct {
	sim      *des.Simulator
	name     string
	capacity int
	busy     int
	service  time.Duration
	accepted int
	refuse   bool // force-refuse all calls
}

func (f *fakeServer) Name() string { return f.name }

func (f *fakeServer) TryAccept(call *Call) bool {
	if f.refuse || f.busy >= f.capacity {
		return false
	}
	f.busy++
	f.accepted++
	f.sim.Schedule(f.service, func() {
		f.busy--
		if call.Done != nil {
			call.Done("")
		}
	})
	return true
}

func TestSendDeliversAndReplies(t *testing.T) {
	sim := des.NewSimulator(1)
	tr := NewTransport(sim)
	srv := &fakeServer{sim: sim, name: "s", capacity: 1, service: 10 * time.Millisecond}

	failedAt := "unset"
	var repliedAt time.Duration
	tr.Send(srv, &Call{Done: func(at string) {
		failedAt = at
		repliedAt = sim.Now()
	}})
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if failedAt != "" {
		t.Fatalf("failedAt = %q, want a completed exchange", failedAt)
	}
	if repliedAt != 10*time.Millisecond {
		t.Fatalf("replied at %v, want 10ms", repliedAt)
	}
	if got := tr.Stats("s"); got.Delivered != 1 || got.Dropped != 0 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestDropRetransmitsAfterRTO(t *testing.T) {
	sim := des.NewSimulator(1)
	tr := NewTransport(sim)
	srv := &fakeServer{sim: sim, name: "s", capacity: 1, service: 10 * time.Millisecond}

	// Occupy the only slot for 4s so the second call's first attempt drops
	// and its 3s retransmission succeeds.
	srv.busy = 1
	sim.Schedule(4*time.Second, func() { srv.busy = 0 })

	var repliedAt time.Duration
	call := &Call{Done: func(string) { repliedAt = sim.Now() }}
	tr.Send(srv, call)
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Dropped at t=0, retransmitted at 3s (still busy → dropped), again at
	// 6s (free) → service 10ms → reply at 6.01s.
	want := 6*time.Second + 10*time.Millisecond
	if repliedAt != want {
		t.Fatalf("replied at %v, want %v", repliedAt, want)
	}
	if call.Retransmits() != 2 {
		t.Fatalf("retransmits = %d, want 2", call.Retransmits())
	}
	if s := tr.Stats("s"); s.Dropped != 2 || s.Delivered != 1 {
		t.Fatalf("stats = %+v, want 2 drops then 1 delivery", s)
	}
}

// A reused Call retries on the transport it was last sent on, not on
// the one where its retry callback was first bound.
func TestReusedCallRetriesOnItsLastTransport(t *testing.T) {
	sim := des.NewSimulator(1)
	a, b := NewTransport(sim), NewTransport(sim)
	srvA := &fakeServer{sim: sim, name: "a", capacity: 1, service: time.Millisecond}
	srvB := &fakeServer{sim: sim, name: "b", capacity: 1, service: time.Millisecond}
	dropOnce := func(srv *fakeServer) {
		srv.refuse = true
		sim.Schedule(time.Second, func() { srv.refuse = false })
	}

	replies := 0
	call := &Call{Done: func(failedAt string) {
		if failedAt == "" {
			replies++
		}
	}}
	dropOnce(srvA)
	a.Send(srvA, call)
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	call.Attempts = 0
	dropOnce(srvB)
	b.Send(srvB, call)
	if err := sim.Run(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if replies != 2 {
		t.Fatalf("replies = %d, want 2", replies)
	}
	if s := b.Stats("b"); s.Attempts != 2 || s.Dropped != 1 || s.Delivered != 1 {
		t.Fatalf("transport B stats for b = %+v, want 2 attempts, 1 drop, 1 delivery", s)
	}
	if s := a.Stats("b"); s != (HopStats{}) {
		t.Fatalf("transport A stats for b = %+v, want none: the retry went through A", s)
	}
	if s := a.Stats("a"); s.Attempts != 2 || s.Delivered != 1 {
		t.Fatalf("transport A stats for a = %+v, want 2 attempts, 1 delivery", s)
	}
}

func TestGiveUpAfterMaxAttempts(t *testing.T) {
	sim := des.NewSimulator(1)
	tr := NewTransport(sim)
	tr.MaxAttempts = 3
	srv := &fakeServer{sim: sim, name: "s", refuse: true}

	var failedAt []string
	var gaveUpAt time.Duration
	tr.Send(srv, &Call{Done: func(at string) {
		failedAt = append(failedAt, at)
		gaveUpAt = sim.Now()
	}})
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(failedAt, []string{"s"}) {
		t.Fatalf("Done called with %q, want once, failed at the destination s", failedAt)
	}
	// Attempts at 0, 3, 6s: gave up at the third drop.
	if gaveUpAt != 6*time.Second {
		t.Fatalf("gave up at %v, want 6s", gaveUpAt)
	}
	s := tr.Stats("s")
	if s.Dropped != 3 || s.Retransmits != 2 || s.GaveUp != 1 || s.Delivered != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCustomRTO(t *testing.T) {
	sim := des.NewSimulator(1)
	tr := NewTransport(sim)
	tr.RTO = time.Second
	srv := &fakeServer{sim: sim, name: "s", capacity: 1, service: time.Millisecond}
	srv.busy = 1
	sim.Schedule(500*time.Millisecond, func() { srv.busy = 0 })

	var repliedAt time.Duration
	tr.Send(srv, &Call{Done: func(string) { repliedAt = sim.Now() }})
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if repliedAt != time.Second+time.Millisecond {
		t.Fatalf("replied at %v, want 1.001s", repliedAt)
	}
}

func TestExponentialBackoff(t *testing.T) {
	sim := des.NewSimulator(1)
	tr := NewTransport(sim)
	tr.Backoff = true
	tr.MaxAttempts = 4
	srv := &fakeServer{sim: sim, name: "s", refuse: true}

	var gaveUpAt time.Duration
	tr.Send(srv, &Call{Done: func(string) { gaveUpAt = sim.Now() }})
	if err := sim.Run(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Attempts at 0, 3, 3+6=9, 9+12=21s.
	if gaveUpAt != 21*time.Second {
		t.Fatalf("gave up at %v, want 21s", gaveUpAt)
	}
}

func TestKeepDrops(t *testing.T) {
	run := func(keep bool) *Transport {
		sim := des.NewSimulator(1)
		tr := NewTransport(sim)
		tr.MaxAttempts = 2
		tr.KeepDrops = keep
		tr.Send(&fakeServer{sim: sim, name: "s", refuse: true}, &Call{})
		if err := sim.Run(time.Minute); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return tr
	}
	kept, off := run(true), run(false)
	want := []Drop{{0, "s"}, {3 * time.Second, "s"}}
	if got := kept.Drops(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Drops with KeepDrops = %v, want %v", got, want)
	}
	if got := off.Drops(); got != nil {
		t.Fatalf("Drops without KeepDrops = %v, want nil", got)
	}
	stats := HopStats{Attempts: 2, Dropped: 2, Retransmits: 1, GaveUp: 1}
	if k, o := kept.Stats("s"), off.Stats("s"); k != stats || o != stats {
		t.Fatalf("stats with KeepDrops %+v, without %+v; want %+v both", k, o, stats)
	}
}

func TestFirstSentStampedOnce(t *testing.T) {
	sim := des.NewSimulator(1)
	tr := NewTransport(sim)
	srv := &fakeServer{sim: sim, name: "s", capacity: 1, service: time.Millisecond}
	srv.busy = 1
	sim.Schedule(time.Second, func() { srv.busy = 0 })

	call := &Call{Done: func(string) {}}
	sim.Schedule(100*time.Millisecond, func() { tr.Send(srv, call) })
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if call.FirstSent != 100*time.Millisecond {
		t.Fatalf("FirstSent = %v, want 100ms", call.FirstSent)
	}
}

func TestTotalDropsAcrossDestinations(t *testing.T) {
	sim := des.NewSimulator(1)
	tr := NewTransport(sim)
	tr.MaxAttempts = 1
	a := &fakeServer{sim: sim, name: "a", refuse: true}
	b := &fakeServer{sim: sim, name: "b", refuse: true}
	tr.Send(a, &Call{})
	tr.Send(b, &Call{})
	tr.Send(b, &Call{})
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.TotalDrops() != 3 {
		t.Fatalf("TotalDrops = %d, want 3", tr.TotalDrops())
	}
	if len(tr.Destinations()) != 2 {
		t.Fatalf("Destinations = %v", tr.Destinations())
	}
}

func TestResponseTimeClusters(t *testing.T) {
	// The Fig. 1 mechanism in miniature: a server with MaxSysQDepth 2
	// receives a burst of 8 simultaneous calls. The overflow retransmits at
	// 3s and, if dropped again, 6s — producing the multi-modal clusters.
	sim := des.NewSimulator(1)
	tr := NewTransport(sim)
	srv := &fakeServer{sim: sim, name: "s", capacity: 2, service: 50 * time.Millisecond}

	buckets := make(map[int]int) // response time rounded to seconds
	for i := 0; i < 8; i++ {
		call := &Call{}
		call.Done = func(failedAt string) {
			if failedAt != "" {
				return
			}
			rt := sim.Now() - call.FirstSent
			buckets[int(rt/time.Second)]++
		}
		tr.Send(srv, call)
	}
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if buckets[0] == 0 || buckets[3] == 0 || buckets[6] == 0 {
		t.Fatalf("expected clusters at 0s, 3s and 6s, got %v", buckets)
	}
}

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

// Property: with a cooperative receiver, a call's total drops equal
// attempts-1 when it eventually succeeds, and response time is
// drops × RTO + service.
func TestPropertyRetransmitArithmetic(t *testing.T) {
	f := func(busyFor uint8) bool {
		sim := des.NewSimulator(int64(busyFor))
		tr := NewTransport(sim)
		srv := &fakeServer{sim: sim, name: "s", capacity: 1, service: time.Millisecond}
		srv.busy = 1
		release := time.Duration(busyFor) * 100 * time.Millisecond
		sim.Schedule(release, func() { srv.busy = 0 })

		var rt time.Duration
		ok := false
		call := &Call{}
		call.Done = func(failedAt string) {
			rt = sim.Now() - call.FirstSent
			ok = failedAt == ""
		}
		tr.Send(srv, call)
		if err := sim.Run(time.Hour); err != nil {
			return false
		}
		if !ok {
			// Gave up: all attempts dropped; that needs >12s of busy.
			return release > 12*time.Second
		}
		want := time.Duration(call.Retransmits())*DefaultRTO + time.Millisecond
		return rt == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelProfileApply(t *testing.T) {
	sim := des.NewSimulator(1)
	tr := NewTransport(sim)
	ModernLinux.Apply(tr)
	if tr.RTO != time.Second || !tr.Backoff || tr.MaxAttempts != 6 {
		t.Fatalf("modern profile not applied: %+v", tr)
	}

	RHEL6.Apply(tr)
	if tr.RTO != 3*time.Second || tr.Backoff || tr.MaxAttempts != 5 {
		t.Fatalf("rhel6 profile not applied: %+v", tr)
	}
	if RHEL6.Backlog != 128 {
		t.Fatalf("RHEL6 backlog = %d, want the paper's 128", RHEL6.Backlog)
	}
}

func TestKernelProfilesDifferInClusterPlacement(t *testing.T) {
	// The same overload produces different cluster positions per kernel:
	// RHEL6 puts the first retransmission at 3s, modern Linux at 1s.
	place := func(p KernelProfile) time.Duration {
		sim := des.NewSimulator(1)
		tr := NewTransport(sim)
		p.Apply(tr)
		srv := &fakeServer{sim: sim, name: "s", capacity: 1, service: time.Millisecond}
		srv.busy = 1
		sim.Schedule(500*time.Millisecond, func() { srv.busy = 0 })
		var rt time.Duration
		call := &Call{}
		call.Done = func(string) { rt = sim.Now() - call.FirstSent }
		tr.Send(srv, call)
		if err := sim.Run(time.Minute); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rt
	}
	if got := place(RHEL6); got < 3*time.Second || got > 3100*time.Millisecond {
		t.Fatalf("RHEL6 first retransmission at %v, want ~3s", got)
	}
	if got := place(ModernLinux); got < time.Second || got > 1100*time.Millisecond {
		t.Fatalf("modern first retransmission at %v, want ~1s", got)
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
