package des

// Differential check of the 4-ary heap + timer wheel scheduler against a
// reference implementation kept on container/heap — the structure the
// kernel used before the rewrite. Both sides consume the same decoded
// schedule+cancel trace; the pop order must match event for event, which
// pins the (time, seq) total order across every container the new
// scheduler can route an event through (near heap, wheel level 0/1,
// overflow, idle catch-up fallback).

import (
	"container/heap"
	"testing"
	"testing/quick"
	"time"
)

// refEvent is one reference-scheduler entry. The id is the trace-wide
// event index used to compare pop orders across implementations.
type refEvent struct {
	time     time.Duration
	seq      uint64
	id       int
	canceled bool
	fired    bool
	index    int
}

// refHeap is the retained container/heap implementation: binary heap,
// dynamic dispatch, eager index maintenance — the pre-rewrite scheduler
// shape, kept verbatim as the semantic oracle.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	old[n] = nil
	*h = old[:n]
	return e
}

// refFire is one pop-order entry: which event fired, and at what clock.
type refFire struct {
	id int
	at time.Duration
}

// refSim is the reference scheduler: same clamping, same per-schedule
// seq assignment, same cancel and horizon semantics as Simulator.
type refSim struct {
	now time.Duration
	seq uint64
	h   refHeap
	log []refFire
}

func (r *refSim) schedule(t time.Duration, id int) *refEvent {
	if t < r.now {
		t = r.now
	}
	e := &refEvent{time: t, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.h, e)
	return e
}

func (r *refSim) cancel(e *refEvent) {
	if e != nil && !e.fired {
		e.canceled = true
	}
}

func (r *refSim) run(horizon time.Duration) {
	for r.h.Len() > 0 {
		e := r.h[0]
		if e.canceled {
			heap.Pop(&r.h)
			continue
		}
		if e.time > horizon {
			break
		}
		heap.Pop(&r.h)
		r.now = e.time
		e.fired = true
		r.log = append(r.log, refFire{e.id, e.time})
	}
	if r.now < horizon {
		r.now = horizon
	}
}

// diffDriver applies one trace to both schedulers in lockstep. It keeps
// every Timer it was handed, so later cancels may go through stale
// handles: the event already fired, or was cancelled and its pooled
// object reused by a later schedule. Both must be no-ops, as they are
// on the reference.
type diffDriver struct {
	sim  *Simulator
	ref  refSim
	evs  []Timer
	refs []*refEvent
	log  []refFire
}

func newDiffDriver() *diffDriver {
	return &diffDriver{sim: NewSimulator(1)}
}

func (d *diffDriver) schedule(at time.Duration) {
	id := len(d.evs)
	d.evs = append(d.evs, d.sim.ScheduleAt(at, func() {
		d.log = append(d.log, refFire{id, d.sim.Now()})
	}))
	d.refs = append(d.refs, d.ref.schedule(at, id))
}

func (d *diffDriver) cancel(i int) {
	d.sim.Cancel(d.evs[i])
	d.ref.cancel(d.refs[i])
}

func (d *diffDriver) run(horizon time.Duration) {
	if err := d.sim.Run(horizon); err != nil && err != ErrHorizon {
		panic(err)
	}
	d.ref.run(horizon)
}

// applyDiffTrace decodes data as a schedule/cancel/advance/reuse op stream,
// applies it to both schedulers, then drains. The delay bands are chosen
// so traces reach every scheduler container: sub-ms delays stay in the
// near heap, the 3 s band lands in wheel level 0 (the RTO shape),
// minutes-scale delays reach level 1 and the overflow list, and advance
// ops move the clock so placements happen against moving horizons.
func applyDiffTrace(data []byte) *diffDriver {
	d := newDiffDriver()
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		ab := time.Duration(uint16(a)<<8 | uint16(b))
		switch op % 6 {
		case 0: // near band: µs-scale, heap-resident
			d.schedule(d.sim.Now() + ab*time.Microsecond)
		case 1: // RTO band: 3 s + jitter, wheel level 0
			d.schedule(d.sim.Now() + 3*time.Second + time.Duration(a)*time.Millisecond + time.Duration(b)*time.Microsecond)
		case 2: // deep band: minutes, wheel level 1 / overflow
			d.schedule(d.sim.Now() + time.Duration(a%30)*time.Minute + time.Duration(b)*time.Second)
		case 3: // cancel an arbitrary earlier event (possibly already fired)
			if len(d.evs) > 0 {
				d.cancel(int(ab) % len(d.evs))
			}
		case 4: // advance the clock up to ~65 s
			d.run(d.sim.Now() + ab*time.Millisecond)
		case 5: // cancel, let a near schedule reuse the freed event, cancel the stale handle
			if len(d.evs) > 0 {
				i := int(a) % len(d.evs)
				d.cancel(i)
				d.schedule(d.sim.Now() + time.Duration(b)*time.Microsecond)
				d.cancel(i)
			}
		}
	}
	d.run(d.sim.Now() + time.Hour) // drain: every band is due within the hour
	return d
}

// checkDiff asserts both schedulers popped the same events at the same
// times in the same order, and agree on the final clock.
func checkDiff(t *testing.T, d *diffDriver) {
	t.Helper()
	if d.sim.Now() != d.ref.now {
		t.Fatalf("clock diverged: new %v, reference %v", d.sim.Now(), d.ref.now)
	}
	if len(d.log) != len(d.ref.log) {
		t.Fatalf("fired %d events, reference fired %d", len(d.log), len(d.ref.log))
	}
	for i := range d.log {
		if d.log[i] != d.ref.log[i] {
			t.Fatalf("pop %d diverged: new fired event %d at %v, reference event %d at %v",
				i, d.log[i].id, d.log[i].at, d.ref.log[i].id, d.ref.log[i].at)
		}
	}
	if d.sim.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", d.sim.Pending())
	}
}

// FuzzSchedulerDifferential fuzzes op traces through both schedulers.
func FuzzSchedulerDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 10, 1, 0, 0, 1, 0, 0, 4, 0, 200}) // FIFO ties in both bands
	f.Add([]byte{1, 0, 0, 2, 5, 0, 2, 29, 255, 4, 255, 255, 3, 0, 1})
	f.Add([]byte{2, 0, 0, 4, 255, 255, 2, 0, 0, 4, 255, 255, 1, 0, 0}) // idle catch-up
	f.Add([]byte{0, 0, 1, 3, 0, 0, 3, 0, 0, 1, 0, 0, 3, 0, 1, 4, 16, 0})
	f.Add([]byte{0, 0, 50, 3, 0, 0, 0, 0, 100, 3, 0, 0, 4, 0, 200, 3, 0, 1, 5, 0, 9}) // stale handles
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDiff(t, applyDiffTrace(data))
	})
}

// TestSchedulerDifferentialProperty drives randomized traces through the
// differential harness under testing/quick, so the comparison runs on
// every ordinary `go test` invocation, not only under -fuzz.
func TestSchedulerDifferentialProperty(t *testing.T) {
	f := func(data []byte) bool {
		d := applyDiffTrace(data)
		if d.sim.Now() != d.ref.now || len(d.log) != len(d.ref.log) {
			return false
		}
		for i := range d.log {
			if d.log[i] != d.ref.log[i] {
				return false
			}
		}
		return d.sim.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerDifferentialTrace pins one handwritten trace that touches
// every container and cancels across them, as a deterministic anchor for
// the fuzz harness itself.
func TestSchedulerDifferentialTrace(t *testing.T) {
	d := newDiffDriver()
	d.schedule(d.sim.Now() + 50*time.Microsecond) // near
	d.schedule(d.sim.Now() + 3*time.Second)       // RTO, level 0
	d.schedule(d.sim.Now() + 3*time.Second)       // simultaneous RTO
	d.schedule(d.sim.Now() + 30*time.Second)      // level 1
	d.schedule(d.sim.Now() + 20*time.Minute)      // overflow
	d.cancel(2)
	d.run(d.sim.Now() + 10*time.Second)
	d.schedule(d.sim.Now() + 3*time.Second) // park against an advanced horizon
	d.cancel(3)
	d.cancel(0)                                   // already fired: no-op on both sides
	d.schedule(d.sim.Now() + 40*time.Microsecond) // reuses event 3's object
	d.cancel(3)                                   // stale handle after reuse: no-op, event 6 fires
	d.run(d.sim.Now() + time.Hour)
	checkDiff(t, d)
}
