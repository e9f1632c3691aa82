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
	next   *Alarm // the next firing, re-armed after each one
	stop   bool
}

// NewTicker schedules fn every period, first firing one period from now.
// Period must be positive.
func NewTicker(sim *Simulator, period time.Duration, fn func(now time.Duration)) *Ticker {
	t := &Ticker{sim: sim, period: period, fn: fn}
	t.next = sim.NewAlarm(t.fire)
	if period > 0 {
		t.next.Set(period)
	}
	return t
}

// Stop withdraws all future firings. Safe to call multiple times, and from
// inside the callback.
func (t *Ticker) Stop() {
	t.stop = true
	t.next.Stop()
}

func (t *Ticker) fire() {
	t.fn(t.sim.Now())
	if !t.stop {
		t.next.Set(t.period)
	}
}
