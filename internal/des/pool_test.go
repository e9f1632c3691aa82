package des

import (
	"testing"
	"time"
	"unsafe"
)

// TestScheduleFreelistReuse pins the pool mechanics: fired events land on
// the freelist and the next Schedule takes from it, so it gets one of
// the drained events' objects.
func TestScheduleFreelistReuse(t *testing.T) {
	sim := NewSimulator(1)
	nop := func() {}
	drained := make(map[*event]bool)
	for i := 0; i < 3; i++ {
		drained[sim.Schedule(time.Duration(i)*time.Microsecond, nop).ev] = true
	}
	for sim.Step() {
	}
	if len(drained) != 3 {
		t.Fatalf("3 pending events shared %d objects, want 3", len(drained))
	}
	if tm := sim.Schedule(time.Microsecond, nop); !drained[tm.ev] {
		t.Error("Schedule after the drain did not reuse a drained event's object")
	}
}

// TestPoolChunkFillsSizeClass pins the arithmetic behind poolChunk: a
// chunk of events or wheel nodes, with the 8-byte header Go adds to a
// pointer-holding object over 512 bytes, fits the 4096-byte size class,
// and one more object would not.
func TestPoolChunkFillsSizeClass(t *testing.T) {
	const class, header = 4096, 8
	for name, size := range map[string]uintptr{
		"event":     unsafe.Sizeof(event{}),
		"wheelNode": unsafe.Sizeof(wheelNode{}),
	} {
		if n := poolChunk * size; n+header > class || n+size+header <= class {
			t.Errorf("%s: %d × %d B chunk does not just fill the %d B size class", name, poolChunk, size, class)
		}
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
// forever, so all of its timers name one event.
func TestScheduleReleaseBeforeFire(t *testing.T) {
	sim := NewSimulator(1)
	count := 0
	events := make(map[*event]bool)
	var hop func()
	hop = func() {
		if count++; count < 100 {
			events[sim.Schedule(time.Microsecond, hop).ev] = true
		}
	}
	events[sim.Schedule(0, hop).ev] = true
	for sim.Step() {
	}
	if count != 100 {
		t.Fatalf("chain fired %d times, want 100", count)
	}
	if len(events) != 1 {
		t.Errorf("self-rescheduling chain's 100 timers named %d events, want 1", len(events))
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
