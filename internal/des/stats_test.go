package des

import (
	"strings"
	"testing"
	"time"
)

// TestPeakPending pins the heap high-water mark: scheduling N events
// before running peaks at N, and executing them never raises it.
func TestPeakPending(t *testing.T) {
	s := NewSimulator(1)
	if s.PeakPending() != 0 {
		t.Fatalf("fresh simulator PeakPending = %d", s.PeakPending())
	}
	for i := 0; i < 10; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if got := s.PeakPending(); got != 10 {
		t.Fatalf("PeakPending = %d, want 10", got)
	}
	if err := s.Run(time.Second); err != nil && err != ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if got := s.PeakPending(); got != 10 {
		t.Fatalf("PeakPending after drain = %d, want 10 (high-water mark)", got)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", s.Pending())
	}
}

// TestScheduledCountsCancelled pins that Scheduled counts every
// ScheduleAt call, including later-cancelled events, while Executed does
// not.
// TestPeakPendingCancelHeavy pins the live-events-only contract: a
// cancel-heavy workload leaves tombstones in the scheduler, but neither
// Pending nor the PeakPending high-water mark may count them. The
// schedule alternates near (heap) and 3 s far (wheel) timers so both
// tombstone paths are audited.
func TestPeakPendingCancelHeavy(t *testing.T) {
	s := NewSimulator(1)
	evs := make([]Timer, 0, 100)
	for i := 0; i < 100; i++ {
		at := time.Duration(i+1) * time.Millisecond
		if i%2 == 1 {
			at = 3*time.Second + time.Duration(i)*time.Millisecond
		}
		evs = append(evs, s.ScheduleAt(at, func() {}))
	}
	if got := s.PeakPending(); got != 100 {
		t.Fatalf("PeakPending = %d, want 100", got)
	}
	for i := 0; i < 90; i++ {
		s.Cancel(evs[i])
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("Pending after cancels = %d, want 10", got)
	}
	// 90 tombstones linger; scheduling 50 more live events — which reuse
	// cancelled objects whose tombstones are still queued — must not push
	// the mark past the true live count (10+50=60 < 100).
	for i := 0; i < 50; i++ {
		s.Schedule(time.Duration(i+200)*time.Millisecond, func() {})
	}
	if got := s.PeakPending(); got != 100 {
		t.Fatalf("PeakPending after refill = %d, want 100 (tombstones must not count)", got)
	}
	if got := s.Pending(); got != 60 {
		t.Fatalf("Pending after refill = %d, want 60", got)
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
	if s.tombstones != 0 {
		t.Fatalf("%d tombstones unaccounted for after drain", s.tombstones)
	}
	if got := uint64(60); s.Executed() != got {
		t.Fatalf("Executed = %d, want %d (cancelled events must not run)", s.Executed(), got)
	}
}

func TestScheduledCountsCancelled(t *testing.T) {
	s := NewSimulator(1)
	ran := 0
	keep := s.Schedule(time.Millisecond, func() { ran++ })
	drop := s.Schedule(2*time.Millisecond, func() { ran++ })
	s.Cancel(drop)
	_ = keep
	if err := s.Run(time.Second); err != nil && err != ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if got := s.Scheduled(); got != 2 {
		t.Fatalf("Scheduled = %d, want 2", got)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
}

// TestProfileWindow checks a profiling window measures only its own
// deltas: events before StartProfile are excluded, and the wall-clock
// fields are populated without perturbing deterministic state.
func TestProfileWindow(t *testing.T) {
	s := NewSimulator(1)
	for i := 0; i < 5; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.Run(10 * time.Millisecond); err != nil && err != ErrHorizon {
		t.Fatalf("Run: %v", err)
	}

	prof := s.StartProfile()
	var tick func(time.Duration)
	n := 0
	tick = func(at time.Duration) {
		n++
		if n < 100 {
			s.ScheduleAt(at+time.Millisecond, func() { tick(at + time.Millisecond) })
		}
	}
	s.ScheduleAt(11*time.Millisecond, func() { tick(11 * time.Millisecond) })
	if err := s.Run(time.Second); err != nil && err != ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	st := prof.Stats()

	if st.EventsExecuted != 100 {
		t.Fatalf("EventsExecuted = %d, want 100 (window only)", st.EventsExecuted)
	}
	if st.EventsScheduled != 100 {
		t.Fatalf("EventsScheduled = %d, want 100 (window only)", st.EventsScheduled)
	}
	if st.PeakPending < 1 {
		t.Fatalf("PeakPending = %d", st.PeakPending)
	}
	if st.WallSeconds <= 0 {
		t.Fatalf("WallSeconds = %v, want > 0", st.WallSeconds)
	}
	if st.EventsPerSecond <= 0 {
		t.Fatalf("EventsPerSecond = %v, want > 0", st.EventsPerSecond)
	}
	// Stats may be read again; both reads measure from the same start.
	st2 := prof.Stats()
	if st2.EventsExecuted != st.EventsExecuted {
		t.Fatalf("second Stats read diverges: %d vs %d", st2.EventsExecuted, st.EventsExecuted)
	}
}

// TestSimStatsString pins the report format carries the headline fields.
func TestSimStatsString(t *testing.T) {
	st := SimStats{
		EventsExecuted: 1234, EventsScheduled: 1300, PeakPending: 17,
		WallSeconds: 0.5, EventsPerSecond: 2468, AllocBytes: 2 << 20, GCCycles: 3,
	}
	out := st.String()
	for _, want := range []string{"1234 events executed", "1300 scheduled", "peak pending 17", "GC cycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() = %q, missing %q", out, want)
		}
	}
}
