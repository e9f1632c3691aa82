package des

// Timer-wheel semantics: far events must be invisible as wheel residents
// — same global (time, seq) firing order, same Pending/horizon behavior
// as if everything sat in the heap. These tests pin the promotion
// machinery at every level (level 0, level 1, overflow, idle catch-up)
// against that equivalence.

import (
	"testing"
	"time"
)

// TestFarTimerOrdering interleaves near events with 3 s RTO-shaped far
// timers and checks the global execution order ignores which container
// each event sat in.
func TestFarTimerOrdering(t *testing.T) {
	sim := NewSimulator(1)
	var got []string
	add := func(name string, at time.Duration) {
		sim.ScheduleAt(at, func() { got = append(got, name) })
	}
	add("rto-b", 3*time.Second+time.Millisecond) // wheel first, fires second
	add("near-a", 5*time.Millisecond)
	add("rto-a", 3*time.Second) // scheduled after rto-b, fires first
	add("near-b", 200*time.Millisecond)
	add("far", 10*time.Second)
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"near-a", "near-b", "rto-a", "rto-b", "far"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestWheelAllLevels lands one event in each wheel container — level 0
// (3 s), level 1 (30 s), overflow (20 min) — and checks each fires at
// exactly its timestamp.
func TestWheelAllLevels(t *testing.T) {
	sim := NewSimulator(1)
	times := []time.Duration{3 * time.Second, 30 * time.Second, 20 * time.Minute}
	fired := make([]time.Duration, 0, len(times))
	for _, at := range times {
		sim.ScheduleAt(at, func() { fired = append(fired, sim.Now()) })
	}
	if err := sim.Run(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
	for i, at := range times {
		if fired[i] != at {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], at)
		}
	}
}

// TestWheelSimultaneousFIFO schedules far events at an identical
// timestamp and checks the FIFO seq tie-break survives wheel placement
// and promotion (buckets are unordered lists; the heap restores order).
func TestWheelSimultaneousFIFO(t *testing.T) {
	sim := NewSimulator(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		sim.ScheduleAt(3*time.Second, func() { got = append(got, i) })
	}
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous far events fired out of FIFO order: %v", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("fired %d, want 10", len(got))
	}
}

// TestWheelCancel cancels a parked far timer: it must not fire, Pending
// must drop immediately, and the tombstone must be reclaimed silently at
// promotion time.
func TestWheelCancel(t *testing.T) {
	sim := NewSimulator(1)
	fired := false
	ev := sim.Schedule(3*time.Second, func() { fired = true })
	keep := false
	sim.Schedule(4*time.Second, func() { keep = true })
	if sim.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", sim.Pending())
	}
	sim.Cancel(ev)
	if sim.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", sim.Pending())
	}
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled far timer fired")
	}
	if !keep {
		t.Fatal("surviving far timer did not fire")
	}
}

// TestRunHorizonWithFarTimer checks Run stops at the horizon with a far
// timer still parked in the wheel, reports it pending, and fires it on a
// later Run.
func TestRunHorizonWithFarTimer(t *testing.T) {
	sim := NewSimulator(1)
	fired := false
	sim.Schedule(3*time.Second, func() { fired = true })
	if err := sim.Run(time.Second); err != ErrHorizon {
		t.Fatalf("Run = %v, want ErrHorizon", err)
	}
	if sim.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", sim.Now())
	}
	if fired {
		t.Fatal("far timer fired before its due time")
	}
	if sim.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", sim.Pending())
	}
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !fired || sim.Now() != time.Minute {
		t.Fatalf("fired=%v Now=%v after second Run", fired, sim.Now())
	}
}

// TestWheelIdleCatchUp drains the wheel, advances the clock far past the
// stale promotion horizon with near events only, then parks a new far
// timer: the wheel must catch its horizon up to the clock rather than
// placing the event in a bucket that already elapsed.
func TestWheelIdleCatchUp(t *testing.T) {
	sim := NewSimulator(1)
	sim.Schedule(3*time.Second, func() {})
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Clock is at 1 min; the wheel is empty with its horizon near 3 s.
	fired := time.Duration(-1)
	sim.Schedule(3*time.Second, func() { fired = sim.Now() })
	if err := sim.Run(2 * time.Minute); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if want := time.Minute + 3*time.Second; fired != want {
		t.Fatalf("far timer after idle gap fired at %v, want %v", fired, want)
	}
}

// TestImpossibleStatesPanic pins the typed scheduler's corruption
// handling: the old container/heap implementation silently swallowed a
// failed *Event type assertion, hiding kernel corruption; the rewrite
// has no any boxing to fail, so the impossible states that remain —
// a queued node whose seq matches a fired event, a wheel placement
// below the promotion horizon — must panic loudly instead of being
// masked.
func TestImpossibleStatesPanic(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic on impossible state", name)
			}
		}()
		f()
	}
	expectPanic("fired event still queued", func() {
		s := NewSimulator(1)
		s.heap.push(heapNode{time: time.Millisecond, seq: 0, ev: &event{state: eventFired}})
		s.tombstones = 1 // force settle onto the state-inspection path
		s.Step()
	})
	expectPanic("fired event still parked in the wheel", func() {
		s := NewSimulator(1)
		n := s.wheel.takeNode()
		n.time, n.ev = time.Millisecond, &event{state: eventFired}
		s.wheel.place(n)
		s.Step()
	})
	expectPanic("placement below the promotion horizon", func() {
		s := NewSimulator(1)
		s.wheel.p0 = 1 << 20
		s.wheel.place(&wheelNode{time: time.Microsecond})
	})
}

// TestFarTimerScheduledDuringRun posts a 3 s retransmission from inside a
// callback — the simnet RTO shape — and checks it fires at the right
// simulated time within the same Run.
func TestFarTimerScheduledDuringRun(t *testing.T) {
	sim := NewSimulator(1)
	var retransmitAt time.Duration
	sim.Schedule(100*time.Millisecond, func() {
		sim.Schedule(3*time.Second, func() { retransmitAt = sim.Now() })
	})
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := 100*time.Millisecond + 3*time.Second; retransmitAt != want {
		t.Fatalf("retransmission fired at %v, want %v", retransmitAt, want)
	}
}

// TestWheelRevolutionAliasing parks two events exactly one level-1
// revolution apart: their level-1 slot indices alias modulo the wheel
// size, so the far one must be routed up to level 2 at placement and
// filtered by absolute bucket index at every spill — it must neither
// leak into the near window nor strand past its due time.
func TestWheelRevolutionAliasing(t *testing.T) {
	sim := NewSimulator(1)
	revolution := time.Duration(wheelSlots) * (time.Duration(1) << g1Bits)
	early := time.Second
	late := early + revolution // aliases early's level-1 slot index
	var got []time.Duration
	sim.ScheduleAt(late, func() { got = append(got, sim.Now()) })
	sim.ScheduleAt(early, func() { got = append(got, sim.Now()) })
	if err := sim.Run(2 * revolution); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != early || got[1] != late {
		t.Fatalf("aliased events fired at %v, want [%v %v]", got, early, late)
	}
}
