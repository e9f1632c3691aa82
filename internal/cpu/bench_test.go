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

// BenchmarkSparseNode is the consolidated host at its sparsest: one
// steady 100 µs job at a time beside 200 co-tenant jobs that outlast the
// run, one core under JobProportional. The steady job gets 1/201 of the
// core, so its completions come about 20 ms apart, past the wheel's
// 16.8 ms level-0 span, with nothing else scheduled. Each operation
// steps the node to the steady job's completion and submits the next.
func BenchmarkSparseNode(b *testing.B) {
	sim := des.NewSimulator(1)
	node := NewNode(sim, "n", 1)
	node.SetPolicy(JobProportional)
	steady := node.AddVM("steady", 1, 1)
	bursty := node.AddVM("bursty", 1, 1)
	for i := 0; i < 200; i++ {
		bursty.Submit(time.Hour, nil)
	}
	steady.Submit(100*time.Microsecond, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for steady.ActiveJobs() == 1 {
			sim.Step()
		}
		steady.Submit(100*time.Microsecond, nil)
	}
}

// BenchmarkDeepQueueNode is the consolidated host with a deep steady
// run queue: one core under JobProportional, a steady VM keeping 150
// staggered jobs in flight beside a co-tenant holding 400 runnable jobs
// that outlast the run, as a SysBursty batch leaves them. Each operation
// steps the node to the next steady completion and submits a job in its
// place, so finding the finished job among the 150 is what it measures
// beside the decrement of all 550.
func BenchmarkDeepQueueNode(b *testing.B) {
	sim := des.NewSimulator(1)
	node := NewNode(sim, "n", 1)
	node.SetPolicy(JobProportional)
	steady := node.AddVM("steady", 1, 1)
	bursty := node.AddVM("bursty", 1, 1)
	for i := 0; i < 400; i++ {
		bursty.Submit(time.Hour, nil)
	}
	const inFlight = 150
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
