package des

import (
	"testing"
	"time"
)

// freeLen counts the events sitting on the simulator's freelist.
func freeLen(s *Simulator) int {
	n := 0
	for e := s.free; e != nil; e = e.next {
		n++
	}
	return n
}

// TestScheduleFreelistReuse pins the pool mechanics: fired events land on
// the freelist and the next Schedule takes from it instead of allocating.
func TestScheduleFreelistReuse(t *testing.T) {
	sim := NewSimulator(1)
	nop := func() {}
	for i := 0; i < 3; i++ {
		sim.Schedule(time.Duration(i)*time.Microsecond, nop)
	}
	for sim.Step() {
	}
	if n := freeLen(sim); n != 3 {
		t.Fatalf("freelist after draining 3 events = %d, want 3", n)
	}
	sim.Schedule(time.Microsecond, nop)
	if n := freeLen(sim); n != 2 {
		t.Errorf("freelist after reusing one slot = %d events, want 2", n)
	}
	for sim.Step() {
	}
	if n := freeLen(sim); n != 3 {
		t.Errorf("freelist after re-draining = %d events, want 3", n)
	}
}

// TestCancelledSlotReusedBeforeReclaim pins the seq-matched liveness
// rule: Cancel returns the event to the pool at once, so the next
// Schedule reuses the object while the old scheduling's node is still
// queued. That node must be dropped as a tombstone — not fire the new
// callback — whether it sits in the wheel or in the near-term heap.
func TestCancelledSlotReusedBeforeReclaim(t *testing.T) {
	sim := NewSimulator(1)
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }

	old := sim.Schedule(time.Millisecond, note("wheel-old")) // parks in the wheel
	sim.Cancel(old)
	reused := sim.Schedule(2*time.Millisecond, note("wheel-new"))
	if reused.ev != old.ev {
		t.Fatal("Schedule did not reuse the cancelled event's object")
	}
	sim.Schedule(3*time.Millisecond, func() {
		// The bucket is promoted, so same-instant events go to the heap.
		old := sim.Schedule(0, note("heap-old"))
		sim.Cancel(old)
		sim.Schedule(0, note("heap-new"))
	})
	for sim.Step() {
	}
	want := []string{"wheel-new", "heap-new"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if sim.Pending() != 0 || sim.tombstones != 0 {
		t.Fatalf("Pending = %d, tombstones = %d after drain, want 0 and 0", sim.Pending(), sim.tombstones)
	}
}

// TestScheduleReleaseBeforeFire pins that the slot is recycled before the
// callback runs: a self-rescheduling event chain reuses one event object
// forever instead of growing the pool.
func TestScheduleReleaseBeforeFire(t *testing.T) {
	sim := NewSimulator(1)
	count := 0
	var hop func()
	hop = func() {
		if count++; count < 100 {
			sim.Schedule(time.Microsecond, hop)
		}
	}
	sim.Schedule(0, hop)
	for sim.Step() {
	}
	if count != 100 {
		t.Fatalf("chain fired %d times, want 100", count)
	}
	if n := freeLen(sim); n != 1 {
		t.Errorf("self-rescheduling chain grew the pool to %d events, want 1", n)
	}
}

// TestScheduleZeroAllocSteadyState is the dynamic half of the hot-path
// contract for the kernel: once the pool and the heap's backing array
// are warm, Schedule+Step allocates nothing. The callback is bound once,
// outside the measured loop — a fresh capturing closure per call would
// allocate at the caller, which is exactly what the hotpath analyzer
// flags there.
func TestScheduleZeroAllocSteadyState(t *testing.T) {
	sim := NewSimulator(1)
	n := 0
	bump := func() { n++ }
	for i := 0; i < 64; i++ {
		sim.Schedule(time.Duration(i)*time.Microsecond, bump)
	}
	for sim.Step() {
	}
	allocs := testing.AllocsPerRun(200, func() {
		sim.Schedule(time.Microsecond, bump)
		sim.Step()
	})
	if allocs != 0 {
		t.Errorf("warm Schedule+Step allocates %.1f objects per op, want 0", allocs)
	}
}
