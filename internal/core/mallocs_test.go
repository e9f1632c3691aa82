package core

import (
	"runtime"
	"testing"

	"ctqosim/internal/metrics"
)

// TestSteadyStateMallocBudget bounds what a warm run allocates: the
// mallocs between the end of warm-up and the end of the run, per request
// the closed loop completed in between, on the benchmark's scenarios
// with bounded retention. The request path allocates nothing once its
// free lists are warm, so what is left is amortized growth: the monitor's
// series, the span arenas and the pools' chunks as concurrency peaks.
// runtime.MemStats counts the whole process, so this test must run
// alone: no test in this package calls t.Parallel.
func TestSteadyStateMallocBudget(t *testing.T) {
	const budget = 0.5
	for _, tc := range []struct {
		name, scenario string
		spans          bool
	}{
		{"fig3", "fig3", false},
		{"fig3-spans", "fig3", true},
		{"async-highutil", "async-highutil", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, ok := Scenarios()[tc.scenario]
			if !ok {
				t.Fatalf("scenario %s is not registered", tc.scenario)
			}
			cfg.Retention = metrics.RetainBounded
			cfg.Spans = tc.spans
			eff := New(cfg).Config()
			var warm, end runtime.MemStats
			var warmDone, endDone int64
			script := cfg.Script
			cfg.Script = func(h *RunHandles) {
				if script != nil {
					script(h)
				}
				h.Sim.ScheduleAt(eff.WarmUp, func() {
					runtime.ReadMemStats(&warm)
					warmDone = h.Clients.Completed()
				})
				h.Sim.ScheduleAt(eff.WarmUp+eff.Duration, func() {
					runtime.ReadMemStats(&end)
					endDone = h.Clients.Completed()
				})
			}
			mustRun(t, cfg)
			done := endDone - warmDone
			if done <= 0 {
				t.Fatalf("no request completed after warm-up (%d at warm-up, %d at the end)", warmDone, endDone)
			}
			perReq := float64(end.Mallocs-warm.Mallocs) / float64(done)
			t.Logf("%d mallocs over %d requests after warm-up: %.3f per request", end.Mallocs-warm.Mallocs, done, perReq)
			if perReq > budget {
				t.Errorf("%.3f mallocs per completed request after warm-up, want at most %.1f", perReq, budget)
			}
		})
	}
}
