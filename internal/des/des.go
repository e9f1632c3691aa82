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
// most of the pending set, and the retransmissions scheduled after a
// drop — and are promoted into a cache-friendly 4-ary min-heap
// (heap4.go) that only ever orders the events about to fire. Promotion
// jumps the wheel's horizon straight to the next occupied 65 µs bucket,
// found in an occupancy map of the wheel's finest level, rather than
// stepping through the empty ones. A heap-only scheduler ran the
// registered scenarios about a fifth slower (DESIGN.md §14). A
// scheduled event always fires: heap and wheel nodes hold the callback
// itself, and Schedule returns nothing to withdraw it by.
//
// An owner that moves or withdraws its pending firing — a CPU node's
// next completion, which moves at nearly every event, a ticker that
// can be stopped, a queue's next timeout — uses an Alarm instead
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

// Simulator owns the virtual clock and the pending-event schedule.
type Simulator struct {
	now   time.Duration
	heap  heap4
	wheel wheel
	seq   uint64
	rng   *rand.Rand

	alarms []*Alarm // armed alarms, unordered
	first  *Alarm   // the earliest armed alarm, nil when none is armed

	executed    uint64
	pending     int
	peakPending int
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

// Scheduled returns the number of events ever scheduled; every Alarm.Set
// counts as one scheduling, whether or not it fires.
func (s *Simulator) Scheduled() uint64 { return s.seq }

// Pending returns the number of events currently scheduled, each armed
// alarm counting as one. A stopped alarm leaves this count at once.
func (s *Simulator) Pending() int { return s.pending }

// PeakPending returns the largest number of simultaneously pending
// events seen so far — the kernel's own memory high-water mark, tracked
// unconditionally because a comparison per schedule is free next to the
// enqueue.
func (s *Simulator) PeakPending() int { return s.peakPending }

// Schedule registers fn to run after delay of simulated time. A negative
// delay is treated as zero. Scheduling allocates nothing once the heap
// and the wheel's node pool are warm — provided fn is not a fresh
// closure per call: bind a recurring callback once and pass the same
// func each time.
//
//lint:hotpath DES kernel scheduling path
func (s *Simulator) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.ScheduleAt(s.now+delay, fn)
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
func (s *Simulator) ScheduleAt(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	seq := s.seq
	s.seq++
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
		s.heap.push(heapNode{time: t, seq: seq, fn: fn})
	} else {
		n := w.takeNode()
		n.time, n.seq, n.fn = t, seq, fn
		w.place(n)
	}
}

// poolChunk is how many wheel nodes the kernel allocates at once while
// its pool warms up: one malloc per chunk instead of one per parked
// event. A node is 32 bytes and holds pointers, and Go adds an 8-byte
// header to such an object over 512 bytes, so 127 of them fill the
// 4096-byte size class, where 128 would spill into the 4864-byte one.
const poolChunk = 127

// settle promotes the timer wheel until the next event is the earlier
// of the heap top and the earliest armed alarm, reporting false when no
// events remain anywhere. The wheel invariant makes the order exact:
// every parked event is at or beyond the promotion horizon, so once the
// heap top or the earliest alarm is below it, the earlier of the two is
// the global minimum. Promotion therefore runs only while neither is
// below the horizon.
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
			w.promote(&s.heap, near)
			continue
		}
		return len(s.heap.a) > 0 || s.first != nil
	}
}

// fire runs the settled next event: the alarm a if it is non-nil (see
// alarmNext), else the heap top. It advances the clock to the event's
// time and runs its callback. The heap node is popped, or the alarm
// disarmed, before the callback runs, so a callback that sets its alarm
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
	n.fn()
}

// Step executes the single next event, advancing the clock to its
// timestamp. It returns false when no events remain.
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
// ErrHorizon if events remain beyond the horizon, nil otherwise.
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
