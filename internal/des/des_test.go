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

// TestTickerStopFromOutside stops a ticker between firings, twice: its
// pending firing leaves Pending at once, and the second Stop is a
// no-op, so the ticker leaves no event behind.
func TestTickerStopFromOutside(t *testing.T) {
	sim := NewSimulator(1)
	count := 0
	tk := NewTicker(sim, 10*time.Millisecond, func(time.Duration) { count++ })
	if err := sim.Run(25 * time.Millisecond); err != ErrHorizon {
		t.Fatalf("Run = %v, want ErrHorizon with the next tick pending", err)
	}
	if sim.Pending() != 1 {
		t.Fatalf("Pending = %d with the ticker running, want 1", sim.Pending())
	}
	tk.Stop()
	if sim.Pending() != 0 {
		t.Fatalf("Pending = %d after Stop, want 0", sim.Pending())
	}
	tk.Stop()
	if sim.Pending() != 0 {
		t.Fatalf("Pending = %d after a second Stop, want 0", sim.Pending())
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run after Stop = %v, want nil", err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2 ticks before the stop", count)
	}
}

// TestTickerCountsOneSchedulingPerArming pins the ticker's kernel
// counters: its first arming and every re-arm after a tick are one
// scheduling each, and a Stop schedules nothing.
func TestTickerCountsOneSchedulingPerArming(t *testing.T) {
	sim := NewSimulator(1)
	tk := NewTicker(sim, 10*time.Millisecond, func(time.Duration) {})
	if sim.Scheduled() != 1 {
		t.Fatalf("Scheduled = %d after NewTicker, want 1", sim.Scheduled())
	}
	if err := sim.Run(35 * time.Millisecond); err != ErrHorizon {
		t.Fatalf("Run = %v, want ErrHorizon", err)
	}
	// Three ticks, each re-arming once.
	if sim.Executed() != 3 || sim.Scheduled() != 4 || sim.PeakPending() != 1 {
		t.Fatalf("Executed %d, Scheduled %d, PeakPending %d; want 3, 4, 1",
			sim.Executed(), sim.Scheduled(), sim.PeakPending())
	}
	tk.Stop()
	if sim.Scheduled() != 4 {
		t.Fatalf("Scheduled = %d after Stop, want 4", sim.Scheduled())
	}
}

// TestTickerTiesFireInArmingOrder puts a ticker's ticks at the instants
// of scheduled events: at each shared instant the one armed first
// fires first, whichever kind it is. The ticker's first arming precedes
// the first event's scheduling, and its re-arm at 10 ms follows the
// second event's, so the two ties break in opposite directions.
func TestTickerTiesFireInArmingOrder(t *testing.T) {
	sim := NewSimulator(1)
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	NewTicker(sim, 10*time.Millisecond, func(time.Duration) {
		got = append(got, "tick")
	})
	sim.Schedule(10*time.Millisecond, note("event@10ms"))
	sim.Schedule(20*time.Millisecond, note("event@20ms"))
	if err := sim.Run(25 * time.Millisecond); err != ErrHorizon {
		t.Fatalf("Run = %v, want ErrHorizon", err)
	}
	want := []string{"tick", "event@10ms", "event@20ms", "tick"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
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
