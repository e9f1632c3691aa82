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

// TestPeakPendingCancelHeavy pins the live-events-only contract on a
// stop-heavy alarm workload: a stopped alarm leaves Pending at once and
// never counts in the PeakPending high-water mark, and re-arming it
// counts it again. Alarms alternate between near and 3 s delays, so
// every other stop withdraws the earliest armed alarm.
func TestPeakPendingCancelHeavy(t *testing.T) {
	s := NewSimulator(1)
	fired := 0
	alarms := make([]*Alarm, 100)
	for i := range alarms {
		alarms[i] = s.NewAlarm(func() { fired++ })
		delay := time.Duration(i+1) * time.Millisecond
		if i%2 == 1 {
			delay = 3*time.Second + time.Duration(i)*time.Millisecond
		}
		alarms[i].Set(delay)
	}
	if got := s.PeakPending(); got != 100 {
		t.Fatalf("PeakPending = %d, want 100", got)
	}
	for _, a := range alarms[:90] {
		a.Stop()
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("Pending after stops = %d, want 10", got)
	}
	// 50 scheduled events and 20 re-armed alarms bring the live count to
	// 80, under the mark: the 70 alarms still stopped must not count.
	for i := 0; i < 50; i++ {
		s.Schedule(time.Duration(i+200)*time.Millisecond, func() { fired++ })
	}
	for _, a := range alarms[:20] {
		a.Set(time.Second)
	}
	if got := s.PeakPending(); got != 100 {
		t.Fatalf("PeakPending after refill = %d, want 100 (stopped alarms must not count)", got)
	}
	if got := s.Pending(); got != 80 {
		t.Fatalf("Pending after refill = %d, want 80", got)
	}
	if err := s.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
	if s.Executed() != 80 || fired != 80 {
		t.Fatalf("Executed = %d, fired %d, want 80 and 80 (stopped alarms must not run)", s.Executed(), fired)
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
