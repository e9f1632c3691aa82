package des

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	sim := NewSimulator(1)

	var got []int
	sim.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	sim.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	sim.Schedule(20*time.Millisecond, func() { got = append(got, 2) })

	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	sim := NewSimulator(1)

	var got []int
	for i := 0; i < 10; i++ {
		i := i
		sim.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events ran out of order: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	sim := NewSimulator(1)

	var at time.Duration
	sim.Schedule(42*time.Millisecond, func() { at = sim.Now() })
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 42*time.Millisecond {
		t.Fatalf("event saw Now()=%v, want 42ms", at)
	}
	if sim.Now() != time.Second {
		t.Fatalf("after Run, Now()=%v, want horizon 1s", sim.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	sim := NewSimulator(1)

	fired := false
	sim.Schedule(-time.Second, func() { fired = true })
	if !sim.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if !fired {
		t.Fatal("event with negative delay did not fire")
	}
	if sim.Now() != 0 {
		t.Fatalf("Now()=%v, want 0", sim.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	sim := NewSimulator(1)
	var at time.Duration
	sim.Schedule(10*time.Millisecond, func() {
		sim.ScheduleAt(5*time.Millisecond, func() { at = sim.Now() })
	})
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 10*time.Millisecond {
		t.Fatalf("past ScheduleAt fired at %v, want clamped to 10ms", at)
	}
}

func TestCancel(t *testing.T) {
	sim := NewSimulator(1)

	fired := false
	ev := sim.Schedule(10*time.Millisecond, func() { fired = true })
	sim.Cancel(ev)
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.ev.state != eventCanceled {
		t.Fatalf("event state = %d after Cancel, want cancelled", ev.ev.state)
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	sim := NewSimulator(1)
	ev := sim.Schedule(10*time.Millisecond, func() {})
	sim.Cancel(ev)
	sim.Cancel(ev) // must not panic
	sim.Cancel(Timer{})
	if sim.Pending() != 0 {
		t.Fatalf("Pending = %d after repeated cancels, want 0", sim.Pending())
	}
}

func TestCancelAfterFire(t *testing.T) {
	sim := NewSimulator(1)
	fired := false
	ev := sim.Schedule(time.Millisecond, func() { fired = true })
	if !sim.Step() {
		t.Fatal("Step returned false")
	}
	if !fired {
		t.Fatal("event did not fire")
	}
	sim.Cancel(ev) // no-op: the callback already ran
	if ev.ev.state != eventFired {
		t.Fatalf("event state = %d after cancel-after-fire, want fired", ev.ev.state)
	}
	if sim.Pending() != 0 {
		t.Fatalf("Pending = %d after cancel-after-fire, want 0", sim.Pending())
	}
	// The fired event's object is reused by the next Schedule; the stale
	// handle must not cancel the new scheduling.
	again := false
	next := sim.Schedule(time.Millisecond, func() { again = true })
	if next.ev != ev.ev {
		t.Fatal("Schedule did not reuse the fired event's pooled object")
	}
	sim.Cancel(ev)
	if sim.Pending() != 1 {
		t.Fatalf("Pending = %d after a stale cancel, want 1", sim.Pending())
	}
	for sim.Step() {
	}
	if !again {
		t.Fatal("a stale handle cancelled the event that reused its object")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	sim := NewSimulator(1)

	var got []int
	evs := make([]Timer, 0, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs = append(evs, sim.Schedule(time.Duration(i+1)*time.Millisecond, func() {
			got = append(got, i)
		}))
	}
	sim.Cancel(evs[2])
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunHorizon(t *testing.T) {
	sim := NewSimulator(1)
	sim.Schedule(2*time.Second, func() {})
	err := sim.Run(time.Second)
	if err != ErrHorizon {
		t.Fatalf("Run = %v, want ErrHorizon", err)
	}
	if sim.Now() != time.Second {
		t.Fatalf("Now()=%v, want 1s", sim.Now())
	}
	if sim.Pending() != 1 {
		t.Fatalf("Pending()=%d, want 1", sim.Pending())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	sim := NewSimulator(1)

	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 100 {
			sim.Schedule(time.Millisecond, chain)
		}
	}
	sim.Schedule(time.Millisecond, chain)
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 100 {
		t.Fatalf("count=%d, want 100", count)
	}
	if sim.Executed() != 100 {
		t.Fatalf("Executed()=%d, want 100", sim.Executed())
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		sim := NewSimulator(seed)
		var times []time.Duration
		for i := 0; i < 50; i++ {
			d := time.Duration(sim.Rand().Intn(1000)) * time.Millisecond
			sim.Schedule(d, func() { times = append(times, sim.Now()) })
		}
		if err := sim.Run(time.Minute); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return times
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatal("different lengths from same seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTicker(t *testing.T) {
	sim := NewSimulator(1)

	var ticks []time.Duration
	tk := NewTicker(sim, 50*time.Millisecond, func(now time.Duration) {
		ticks = append(ticks, now)
		if len(ticks) == 4 {
			// Stop from within the callback.
		}
	})
	sim.Schedule(220*time.Millisecond, tk.Stop)
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ticks) != 4 {
		t.Fatalf("got %d ticks, want 4: %v", len(ticks), ticks)
	}
	for i, tick := range ticks {
		want := time.Duration(i+1) * 50 * time.Millisecond
		if tick != want {
			t.Fatalf("tick %d at %v, want %v", i, tick, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	sim := NewSimulator(1)

	count := 0
	var tk *Ticker
	tk = NewTicker(sim, 10*time.Millisecond, func(time.Duration) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 3 {
		t.Fatalf("count=%d, want 3", count)
	}
}

func TestTickerZeroPeriodNeverFires(t *testing.T) {
	sim := NewSimulator(1)
	fired := false
	NewTicker(sim, 0, func(time.Duration) { fired = true })
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("zero-period ticker fired")
	}
}

// Property: events always execute in non-decreasing time order regardless of
// the order and values of scheduled delays.
func TestPropertyMonotonicExecution(t *testing.T) {
	f := func(delays []uint16) bool {
		sim := NewSimulator(3)
		var seen []time.Duration
		for _, d := range delays {
			sim.Schedule(time.Duration(d)*time.Millisecond, func() {
				seen = append(seen, sim.Now())
			})
		}
		if err := sim.Run(time.Hour); err != nil {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset of events executes exactly the
// complement, still in time order.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint16, mask []bool) bool {
		sim := NewSimulator(5)
		fired := make([]bool, len(delays))
		evs := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			evs[i] = sim.Schedule(time.Duration(d)*time.Millisecond, func() {
				fired[i] = true
			})
		}
		for i := range delays {
			if i < len(mask) && mask[i] {
				sim.Cancel(evs[i])
			}
		}
		if err := sim.Run(time.Hour); err != nil {
			return false
		}
		for i := range delays {
			wantFired := !(i < len(mask) && mask[i])
			if fired[i] != wantFired {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
