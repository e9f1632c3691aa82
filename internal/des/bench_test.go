package des

import (
	"testing"
	"time"
)

func BenchmarkScheduleAndFire(b *testing.B) {
	sim := NewSimulator(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 0 {
			for sim.Step() {
			}
		}
	}
	for sim.Step() {
	}
}

// The EventLoop pair measures what binding a callback once buys over
// building a closure per call on the kernel's steady-state path: both
// benchmarks run the same schedule-then-drain loop with a callback that
// bumps a captured counter. The closure variant allocates a fresh
// capturing closure per iteration; the bound variant passes one func
// value bound before the loop, so once the heap and the wheel's node
// pool are warm it allocates nothing.

type benchCounter struct{ n int }

func BenchmarkEventLoopClosure(b *testing.B) {
	sim := NewSimulator(1)
	c := &benchCounter{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Schedule(time.Duration(i%1000)*time.Microsecond, func() { c.n++ })
		if i%1024 == 1023 {
			for sim.Step() {
			}
		}
	}
	for sim.Step() {
	}
}

func BenchmarkEventLoopBound(b *testing.B) {
	sim := NewSimulator(1)
	c := &benchCounter{}
	bump := func() { c.n++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Schedule(time.Duration(i%1000)*time.Microsecond, bump)
		if i%1024 == 1023 {
			for sim.Step() {
			}
		}
	}
	for sim.Step() {
	}
}

// BenchmarkEventLoopRTO100k is the paper's tail mechanism as a scheduler
// stress: 100k pending 3 s RTO retransmission timers, spaced 30 µs apart
// so the population stays at 100k while each iteration schedules one
// fresh RTO and fires the oldest. Under the old binary heap every
// operation paid O(log 100k) sifts through the full timer population;
// with the wheel the resident RTOs cost O(1) to park and the near-term
// heap stays small.
func BenchmarkEventLoopRTO100k(b *testing.B) {
	const rto = 3 * time.Second
	const spacing = 30 * time.Microsecond
	sim := NewSimulator(1)
	c := &benchCounter{}
	bump := func() { c.n++ }
	for i := 0; i < 100_000; i++ {
		sim.ScheduleAt(sim.Now()+time.Duration(i)*spacing+rto, bump)
	}
	// Advance to the first timer's due instant so each iteration's Step
	// fires exactly one timer while 100k remain pending.
	for sim.Now() < rto {
		sim.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(rto, bump)
		sim.Step()
	}
}

// BenchmarkAlarmRearm is the CPU nodes' completion shape on the kernel
// alone: five alarms, one per node, and every firing re-arms all five,
// earlier or later than they were, as each event re-times every node's
// next completion. Each operation fires one alarm.
func BenchmarkAlarmRearm(b *testing.B) {
	sim := NewSimulator(1)
	alarms := make([]*Alarm, 5)
	x := uint32(1)
	rearm := func() {
		for _, a := range alarms {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			a.Set(time.Duration(x%2000) * time.Microsecond)
		}
	}
	for i := range alarms {
		alarms[i] = sim.NewAlarm(rearm)
	}
	rearm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}
