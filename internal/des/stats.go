// DES self-profiling: the measurement-boundary code that reads the wall
// clock and the Go runtime's allocation counters around a run, so the
// kernel's own cost — the denominator of every "simulate millions of
// users" claim — is a first-class, recorded quantity.
//
// The wall-clock reads here are the sanctioned exception to the
// determinism contract: they happen only at run boundaries, never feed
// back into simulated time, and each carries a //lint:allow wallclock
// annotation (the measurement-boundary convention checked by ctqo-lint's
// fixtures).

package des

import (
	"fmt"
	"runtime"
	"time"
)

// SimStats is one profiled run's kernel self-measurement.
//
// EventsExecuted, EventsScheduled and PeakPending are deterministic —
// identical for identical seeds. WallSeconds, EventsPerSecond,
// AllocBytes and GCCycles read the host and vary run to run; they must
// never flow into simulation state or byte-compared artifacts.
type SimStats struct {
	// EventsExecuted is how many events the kernel ran in the window.
	EventsExecuted uint64
	// EventsScheduled is how many events were scheduled in the window,
	// every alarm arming included, whether or not it fired.
	EventsScheduled uint64
	// PeakPending is the pending-heap high-water mark over the whole
	// simulator lifetime.
	PeakPending int
	// WallSeconds is the host time the window took.
	WallSeconds float64
	// EventsPerSecond is EventsExecuted/WallSeconds — the kernel
	// throughput number the DES hot-path work is judged against.
	EventsPerSecond float64
	// AllocBytes is the runtime.MemStats TotalAlloc delta over the
	// window: bytes allocated, not bytes retained.
	AllocBytes uint64
	// GCCycles is the NumGC delta over the window.
	GCCycles uint32
}

// String renders the stats as a compact two-line report.
func (st SimStats) String() string {
	return fmt.Sprintf(
		"%d events executed (%d scheduled), peak pending %d\n"+
			"%.3fs wall, %.3gM events/s, %.1f MB allocated, %d GC cycles",
		st.EventsExecuted, st.EventsScheduled, st.PeakPending,
		st.WallSeconds, st.EventsPerSecond/1e6,
		float64(st.AllocBytes)/(1<<20), st.GCCycles)
}

// Profile is an open profiling window over one simulator.
type Profile struct {
	sim            *Simulator
	startWall      time.Time
	startExecuted  uint64
	startScheduled uint64
	startAlloc     uint64
	startGC        uint32
}

// StartProfile opens a profiling window at the current run boundary:
// it snapshots the kernel counters, the allocation totals and the wall
// clock. Call Stats after Run to close the window.
func (s *Simulator) StartProfile() *Profile {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &Profile{
		sim:            s,
		startExecuted:  s.executed,
		startScheduled: s.seq,
		startAlloc:     m.TotalAlloc,
		startGC:        m.NumGC,
		startWall:      time.Now(), //lint:allow wallclock profiling measurement boundary
	}
}

// Stats closes the window and returns the deltas. It may be called more
// than once; each call measures from the same start.
func (p *Profile) Stats() SimStats {
	wall := time.Since(p.startWall) //lint:allow wallclock profiling measurement boundary
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st := SimStats{
		EventsExecuted:  p.sim.executed - p.startExecuted,
		EventsScheduled: p.sim.seq - p.startScheduled,
		PeakPending:     p.sim.peakPending,
		WallSeconds:     wall.Seconds(),
		AllocBytes:      m.TotalAlloc - p.startAlloc,
		GCCycles:        m.NumGC - p.startGC,
	}
	if st.WallSeconds > 0 {
		st.EventsPerSecond = float64(st.EventsExecuted) / st.WallSeconds
	}
	return st
}
