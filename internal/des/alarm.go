package des

import "time"

// Alarm is the kernel's one event that a model can move or withdraw,
// for an owner that has at most one firing pending at a time: a CPU
// node's next completion, which moves at nearly every event on its
// node, a ticker's next tick, a queue's next timeout. Set arms it or
// re-arms it in place; Stop withdraws it.
//
// An arming is one scheduling: Set takes the next seq exactly where a
// Schedule would, and a re-arm counts in Scheduled, Pending and
// PeakPending as a withdrawal of the pending firing followed by a fresh
// Schedule would. So an alarm takes the same place in the global (time,
// seq) order as that pair, and a model that switches to an alarm keeps
// every result.
//
// Armed alarms are kept apart from the heap and the wheel: the
// simulator scans them for the earliest and caches it, which is cheap
// for the handful a run has (one per CPU node, ticker and queue with a
// timeout).
type Alarm struct {
	sim  *Simulator
	fn   func()
	time time.Duration // when the armed alarm fires
	seq  uint64        // the scheduling it stands for
	slot int           // index in sim.alarms while armed, -1 while disarmed
}

// NewAlarm returns a disarmed alarm that runs fn each time it fires. It
// is built once for its owner's life: arming it allocates nothing once
// the simulator's armed set has grown to the run's number of alarms.
func (s *Simulator) NewAlarm(fn func()) *Alarm {
	return &Alarm{sim: s, fn: fn, slot: -1}
}

// Set arms the alarm to fire after delay of simulated time, replacing
// the pending firing if it is armed. A negative delay is treated as
// zero.
//
//lint:hotpath DES kernel alarm path
func (a *Alarm) Set(delay time.Duration) {
	s := a.sim
	if delay < 0 {
		delay = 0
	}
	old := a.time
	a.time, a.seq = s.now+delay, s.seq
	s.seq++
	switch {
	case a.slot < 0:
		s.pending++
		if s.pending > s.peakPending {
			s.peakPending = s.pending
		}
		a.slot = len(s.alarms)
		s.alarms = append(s.alarms, a) //lint:allow hotpath amortized: grows to the run's number of alarms, then is reused
		if s.first == nil || a.key().before(s.first.key()) {
			s.first = a
		}
	case a == s.first:
		// A later seq keeps the earliest alarm first only if it moved
		// earlier; otherwise another armed alarm may now precede it.
		if a.time >= old {
			s.first = s.earliestAlarm()
		}
	case a.key().before(s.first.key()):
		s.first = a
	}
}

// Stop disarms the alarm. Stopping a disarmed alarm is a no-op.
//
//lint:hotpath DES kernel alarm path
func (a *Alarm) Stop() {
	if a.slot < 0 {
		return
	}
	a.sim.disarm(a)
	a.sim.pending--
}

// key is the alarm's place in the scheduler's (time, seq) order, as a
// heap node without a callback, so alarms compare by heapNode.before.
//
//lint:hotpath
func (a *Alarm) key() heapNode { return heapNode{time: a.time, seq: a.seq} }

// disarm takes an armed alarm out of the armed set, refreshing the
// cached earliest if it was that one.
//
//lint:hotpath
func (s *Simulator) disarm(a *Alarm) {
	last := len(s.alarms) - 1
	moved := s.alarms[last]
	s.alarms[a.slot], moved.slot = moved, a.slot
	s.alarms[last] = nil
	s.alarms = s.alarms[:last]
	a.slot = -1
	if a == s.first {
		s.first = s.earliestAlarm()
	}
}

// earliestAlarm scans the armed alarms for the earliest in (time, seq)
// order, nil when none is armed.
//
//lint:hotpath
func (s *Simulator) earliestAlarm() *Alarm {
	var first *Alarm
	for _, a := range s.alarms {
		if first == nil || a.key().before(first.key()) {
			first = a
		}
	}
	return first
}

// alarmNext reports the earliest alarm when it, not the heap top, is the
// next event, and nil otherwise. Call it only after settle returned
// true: the heap top is then live, and whichever of the two comes first
// in (time, seq) order is the global minimum.
//
//lint:hotpath
func (s *Simulator) alarmNext() *Alarm {
	a := s.first
	if a == nil || len(s.heap.a) == 0 {
		return a
	}
	if s.heap.a[0].before(a.key()) {
		return nil
	}
	return a
}
