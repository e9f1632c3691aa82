package des

import (
	"testing"
	"time"
)

// TestAlarmHorizonAndCounts pins what the differential harness does not
// read: Run's ErrHorizon for an alarm armed past the horizon, and the
// counters through arm, re-arm, stop and fire. A re-arm is one more
// scheduling and leaves Pending as it was; a stop leaves Pending at
// once.
func TestAlarmHorizonAndCounts(t *testing.T) {
	sim := NewSimulator(1)
	var fired []time.Duration
	a := sim.NewAlarm(func() { fired = append(fired, sim.Now()) })
	a.Set(2 * time.Second)
	if err := sim.Run(time.Second); err != ErrHorizon {
		t.Fatalf("Run with an alarm armed past the horizon = %v, want ErrHorizon", err)
	}
	if sim.Now() != time.Second || len(fired) != 0 {
		t.Fatalf("Now = %v, fired %v: want 1s and nothing", sim.Now(), fired)
	}
	a.Set(500 * time.Millisecond)
	if sim.Scheduled() != 2 || sim.Pending() != 1 || sim.PeakPending() != 1 {
		t.Fatalf("after a re-arm: Scheduled %d, Pending %d, PeakPending %d; want 2, 1, 1",
			sim.Scheduled(), sim.Pending(), sim.PeakPending())
	}
	a.Stop()
	a.Stop() // a no-op on a disarmed alarm
	if sim.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0", sim.Pending())
	}
	if err := sim.Run(time.Minute); err != nil || len(fired) != 0 {
		t.Fatalf("Run after Stop = %v, fired %v: want nil and nothing", err, fired)
	}
	a.Set(time.Second)
	if err := sim.Run(2 * time.Minute); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if len(fired) != 1 || fired[0] != time.Minute+time.Second {
		t.Fatalf("fired %v, want once at 1m1s", fired)
	}
	if sim.Executed() != 1 || sim.Scheduled() != 3 || sim.Pending() != 0 || sim.PeakPending() != 1 {
		t.Fatalf("Executed %d, Scheduled %d, Pending %d, PeakPending %d; want 1, 3, 0, 1",
			sim.Executed(), sim.Scheduled(), sim.Pending(), sim.PeakPending())
	}
}
