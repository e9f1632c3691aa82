package cpu

import (
	"testing"
	"time"

	"ctqosim/internal/des"
)

// BenchmarkProcessorSharing measures job churn through a contended
// two-VM node — the hot path of every experiment.
func BenchmarkProcessorSharing(b *testing.B) {
	sim := des.NewSimulator(1)
	node := NewNode(sim, "n", 1)
	a := node.AddVM("a", 1, 1)
	c := node.AddVM("b", 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vm := a
		if i%2 == 0 {
			vm = c
		}
		vm.Submit(100*time.Microsecond, nil)
		if i%64 == 0 {
			for sim.Pending() > 0 && sim.Step() {
			}
		}
	}
	for sim.Pending() > 0 && sim.Step() {
	}
}

// BenchmarkConsolidatedNode measures processor sharing in the shape of
// fig3's consolidated host: one core under JobProportional, a steady VM
// keeping eight 100 µs jobs in flight beside a co-tenant holding 200
// runnable jobs that outlast the run. Each operation steps the node to
// the next steady completion and submits a job in its place, so both of
// its CPU events meet all 208 jobs.
func BenchmarkConsolidatedNode(b *testing.B) {
	sim := des.NewSimulator(1)
	node := NewNode(sim, "n", 1)
	node.SetPolicy(JobProportional)
	steady := node.AddVM("steady", 1, 1)
	bursty := node.AddVM("bursty", 1, 1)
	for i := 0; i < 200; i++ {
		bursty.Submit(time.Hour, nil)
	}
	// Staggered demands, so the steady jobs complete one at a time.
	const inFlight = 8
	for k := 1; k <= inFlight; k++ {
		steady.Submit(time.Duration(k)*100*time.Microsecond/inFlight, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for steady.ActiveJobs() == inFlight {
			sim.Step()
		}
		steady.Submit(100*time.Microsecond, nil)
	}
}
