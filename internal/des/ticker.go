package des

import "time"

// Ticker fires a callback at a fixed simulated-time period until stopped or
// the simulation drains. It is the simulation analogue of time.Ticker and is
// used by monitors (50ms sampling) and periodic fault injectors (30s log
// flush).
type Ticker struct {
	sim    *Simulator
	period time.Duration
	fn     func(now time.Duration)
	tick   func() // t.fire, bound once so re-arming allocates nothing
	next   Timer
	stop   bool
}

// NewTicker schedules fn every period, first firing one period from now.
// Period must be positive.
func NewTicker(sim *Simulator, period time.Duration, fn func(now time.Duration)) *Ticker {
	t := &Ticker{sim: sim, period: period, fn: fn}
	t.tick = t.fire
	if period > 0 {
		t.next = sim.Schedule(period, t.tick)
	}
	return t
}

// Stop cancels all future firings. Safe to call multiple times, and from
// inside the callback.
func (t *Ticker) Stop() {
	t.stop = true
	t.sim.Cancel(t.next)
}

func (t *Ticker) fire() {
	t.fn(t.sim.Now())
	if !t.stop {
		t.next = t.sim.Schedule(t.period, t.tick)
	}
}
