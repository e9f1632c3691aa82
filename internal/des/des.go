// Package des provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a virtual clock forward by executing scheduled events in
// timestamp order. Events with identical timestamps execute in the order they
// were scheduled (stable FIFO tie-breaking), so a simulation is fully
// reproducible given the same inputs and RNG seed.
//
// The scheduler is split by distance-to-due: events park in a three-level
// hierarchical timer wheel (wheel.go) for O(1) insertion — above all the
// closed loop's think timers, one per client, seconds out, which make up
// most of the pending set (retransmissions are scheduled only after a
// drop and never cancelled) — and are promoted into a cache-friendly
// 4-ary min-heap (heap4.go) that only ever orders the events about to
// fire. Promotion jumps the wheel's horizon straight to the next
// occupied 65 µs bucket, found in an occupancy map of the wheel's finest
// level, rather than stepping through the empty ones. A heap-only
// scheduler ran the registered scenarios about a fifth slower (DESIGN.md
// §14). Events are pooled, and Schedule hands back a small Timer value
// rather than the event itself. Cancellation is O(1) and lazy: a
// cancelled event's queued node becomes a tombstone, dropped when the
// scheduler reaches it.
//
// An owner with at most one pending firing that moves at nearly every
// event — a CPU node's next completion — uses an Alarm instead
// (alarm.go): it re-arms in place and is kept apart from the heap and
// the wheel, so the next event is the earlier of the heap top and the
// earliest armed alarm. DESIGN.md §14 describes the structure and its
// determinism argument.
//
// The kernel is intentionally single-threaded: all model code runs on the
// caller's goroutine inside Run/Step. This makes simulations deterministic
// and fast, and lets models share state without locks.
package des

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// ErrHorizon is returned by Run when the simulation reaches the requested
// time horizon with events still pending, armed alarms included.
var ErrHorizon = errors.New("des: horizon reached with pending events")

// Event lifecycle states. Each scheduling of a pooled event object ends
// exactly once, by firing or by cancellation; the state records how, and
// stays readable until the object is reused.
const (
	eventPending uint8 = iota
	eventFired
	eventCanceled
)

// event is one scheduled callback. Events are pooled: the kernel pushes
// the object onto an intrusive freelist the moment it fires or is
// cancelled, so steady-state scheduling allocates nothing. One object
// therefore serves many schedulings over its life, and seq names the
// one it serves now — how a Timer, or a queued heap or wheel node, tells
// its own scheduling from a later reuse of the same object.
type event struct {
	fn    func()
	seq   uint64
	state uint8
	next  *event // freelist link
}

// Timer is the handle Schedule returns: the event plus the seq of the
// scheduling it names. The zero Timer names nothing.
type Timer struct {
	ev  *event
	seq uint64
}

// Simulator owns the virtual clock and the pending-event schedule.
type Simulator struct {
	now   time.Duration
	heap  heap4
	wheel wheel
	seq   uint64
	rng   *rand.Rand
	free  *event // intrusive freelist of fired and cancelled events

	alarms []*Alarm // armed alarms, unordered
	first  *Alarm   // the earliest armed alarm, nil when none is armed

	executed    uint64
	pending     int
	peakPending int
	tombstones  int // cancelled events not yet reclaimed from heap/wheel
}

// NewSimulator returns a simulator whose clock starts at zero and whose RNG
// is seeded with seed.
func NewSimulator(seed int64) *Simulator {
	return &Simulator{
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current simulated time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Scheduled returns the number of events ever scheduled (including
// cancelled ones); every Alarm.Set counts as one scheduling.
func (s *Simulator) Scheduled() uint64 { return s.seq }

// Pending returns the number of live events currently scheduled, each
// armed alarm counting as one. Cancelled events leave this count the
// moment Cancel runs, even though their tombstones are reclaimed lazily.
func (s *Simulator) Pending() int { return s.pending }

// PeakPending returns the largest number of simultaneously live events
// seen so far — the kernel's own memory high-water mark, tracked
// unconditionally because a comparison per schedule is free next to the
// enqueue. Cancelled events stop counting at Cancel time; lazy
// tombstones never inflate the mark.
func (s *Simulator) PeakPending() int { return s.peakPending }

// Schedule registers fn to run after delay of simulated time and returns
// a Timer that can cancel it. A negative delay is treated as zero. Events
// are pooled, so scheduling allocates nothing once the pool is warm —
// provided fn is not a fresh closure per call: bind a recurring callback
// once and pass the same func each time.
//
//lint:hotpath DES kernel scheduling path
func (s *Simulator) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt registers fn to run at absolute simulated time t. Times in the
// past are clamped to the current time.
//
// The event takes the next slot of the global (time, seq) order and is
// routed to the near-term heap or the timer wheel. The wheel is the
// default home: parking is O(1) and keeps the heap one bucket deep. Only
// events due below the promotion horizon — typically same-bucket
// microsecond chains, whose bucket has already been promoted — go
// straight to the heap, which is always correct because the heap may
// legally hold an event at any distance. If the wheel is idle its
// horizon may lag the clock arbitrarily, so it is first caught up (safe:
// there is nothing parked to skip).
//
//lint:hotpath DES kernel scheduling path
func (s *Simulator) ScheduleAt(t time.Duration, fn func()) Timer {
	if t < s.now {
		t = s.now
	}
	e := s.take()
	seq := s.seq
	s.seq++
	e.fn, e.seq, e.state = fn, seq, eventPending
	s.pending++
	if s.pending > s.peakPending {
		s.peakPending = s.pending
	}
	w := &s.wheel
	if w.resident() == 0 {
		if b := int64(s.now >> g0Bits); b > w.p0 {
			w.p0 = b
		}
	}
	if int64(t>>g0Bits) < w.p0 {
		s.heap.push(heapNode{time: t, seq: seq, ev: e})
	} else {
		n := w.takeNode()
		n.time, n.seq, n.ev = t, seq, e
		w.place(n)
	}
	return Timer{ev: e, seq: seq}
}

// poolChunk is how many events, or wheel nodes, the kernel allocates at
// once while its pools warm up: one malloc per chunk instead of one per
// object, where one object per pending event or parked timer was half of
// a fig3 set-up's mallocs. Both objects are 32 bytes and hold pointers,
// and Go adds an 8-byte header to such an object over 512 bytes, so 127
// of them fill the 4096-byte size class, where 128 would spill into the
// 4864-byte one.
const poolChunk = 127

// take pops the freelist, refilling it with a chunk of events only while
// the pool is warming up.
//
//lint:hotpath
func (s *Simulator) take() *event {
	if s.free == nil {
		chunk := new([poolChunk]event) //lint:allow hotpath pool warm-up: one chunk per poolChunk concurrent pending events, reused forever after
		for i := range len(chunk) - 1 {
			chunk[i].next = &chunk[i+1]
		}
		s.free = &chunk[0]
	}
	e := s.free
	s.free = e.next
	return e
}

// release ends an event's current scheduling with the given state and
// pushes the object onto the freelist. fn is cleared so the freelist
// does not pin caller closures; seq and state stay as they are until
// reuse, so a stale Timer or a queued tombstone can still tell how its
// scheduling ended.
//
//lint:hotpath
func (s *Simulator) release(e *event, state uint8) {
	e.fn, e.state = nil, state
	e.next = s.free
	s.free = e
}

// Cancel removes t's event from the schedule if it has not yet fired. The
// object goes straight back to the pool, but its queued node stays in
// the heap or wheel as a tombstone — no heap surgery — reclaimed lazily
// when the scheduler reaches it (see tombstone). Cancelling through a
// Timer whose event already fired, was already cancelled, or has since
// been reused for another scheduling is a no-op, and so is cancelling
// the zero Timer.
//
//lint:hotpath
func (s *Simulator) Cancel(t Timer) {
	e := t.ev
	if e == nil || e.seq != t.seq || e.state != eventPending {
		return
	}
	s.release(e, eventCanceled)
	s.pending--
	s.tombstones++
}

// tombstone reports whether a queued node with the given seq is a
// lazy-cancellation tombstone: its event was cancelled, and possibly
// reused since for a later scheduling (the seqs differ). A node whose
// seq matches a fired event is an impossible state — firing pops the
// node — and panics.
//
//lint:hotpath
func (e *event) tombstone(seq uint64) bool {
	if e.seq != seq {
		return true
	}
	switch e.state {
	case eventPending:
		return false
	case eventCanceled:
		return true
	default:
		panic("des: fired event still queued")
	}
}

// settle drains cancelled tombstones off the heap top and promotes the
// timer wheel until the next event is the earlier of the heap top and
// the earliest armed alarm, reporting false when no live events remain
// anywhere. The wheel invariant makes the order exact: every parked
// event is at or beyond the promotion horizon, so once the heap top or
// the earliest alarm is below it, the earlier of the two is the global
// minimum. Promotion therefore runs only while neither is below the
// horizon. While the tombstone count is zero — the steady state of
// cancel-free stretches — the top's event is never even loaded.
//
//lint:hotpath
func (s *Simulator) settle() bool {
	for {
		near := int64(math.MaxInt64) // the bucket of the nearest event outside the wheel
		if len(s.heap.a) > 0 {
			near = int64(s.heap.a[0].time >> g0Bits)
		}
		if s.first != nil {
			near = min(near, int64(s.first.time>>g0Bits))
		}
		if w := &s.wheel; near >= w.p0 && w.resident() > 0 {
			s.tombstones -= w.promote(&s.heap, near, s.tombstones > 0)
			continue
		}
		if len(s.heap.a) == 0 {
			return s.first != nil
		}
		if top := s.heap.a[0]; s.tombstones == 0 || !top.ev.tombstone(top.seq) {
			return true
		}
		s.heap.pop()
		s.tombstones--
	}
}

// fire runs the settled next event: the alarm a if it is non-nil (see
// alarmNext), else the heap top. It advances the clock to the event's
// time and runs its callback. The event is released to the pool, or the
// alarm disarmed, before the callback runs, so a callback that schedules
// reuses the very slot it fired from, and one that sets its alarm
// re-arms it.
//
//lint:hotpath
func (s *Simulator) fire(a *Alarm) {
	s.executed++
	s.pending--
	if a != nil {
		s.now = a.time
		s.disarm(a)
		a.fn()
		return
	}
	n := s.heap.pop()
	s.now = n.time
	fn := n.ev.fn
	s.release(n.ev, eventFired)
	fn()
}

// Step executes the single next event, advancing the clock to its
// timestamp. It returns false when no live events remain.
//
//lint:hotpath DES kernel event loop
func (s *Simulator) Step() bool {
	if !s.settle() {
		return false
	}
	s.fire(s.alarmNext())
	return true
}

// Run executes events until the schedule drains or the clock would pass
// horizon. Events scheduled exactly at the horizon still execute. It returns
// ErrHorizon if live events remain beyond the horizon, nil otherwise.
//
//lint:hotpath DES kernel event loop
func (s *Simulator) Run(horizon time.Duration) error {
	for s.settle() {
		a := s.alarmNext()
		if a != nil && a.time > horizon || a == nil && s.heap.a[0].time > horizon {
			s.now = horizon
			return ErrHorizon
		}
		s.fire(a)
	}
	if s.now < horizon {
		s.now = horizon
	}
	return nil
}
