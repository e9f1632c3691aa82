package des

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"ctqosim/internal/benchrec"
)

// eventLoopBaselineNs is the recorded zero-alloc event-loop cost of the
// pooled-event kernel on the container/heap scheduler (107 ns/op). The
// 4-ary heap + timer wheel rewrite targets ≥2× this on the
// bound-callback row; the run fails when it lands below 1.5× — an
// enforced floor, overridable for noisy hardware with CTQO_BENCH_FLOOR
// (a replacement ratio; 0 disables the gate).
const (
	eventLoopBaselineNs = 107
	eventLoopFloorRatio = 1.5
)

// benchFloor resolves the enforced floor: CTQO_BENCH_FLOOR overrides
// the default, and a non-positive value disables the gate (the second
// return is false).
func benchFloor(t *testing.T, def float64) (float64, bool) {
	s := os.Getenv("CTQO_BENCH_FLOOR")
	if s == "" {
		return def, true
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("CTQO_BENCH_FLOOR=%q: %v", s, err)
	}
	if v <= 0 {
		return 0, false
	}
	return v, true
}

// TestEventLoopBenchRecord runs the EventLoop benchmark family and
// writes the comparison under the "event_loop" key of the keyed
// benchmark file named by CTQO_BENCHOUT (BENCH_parallel.json in CI):
// Schedule with a per-call capturing closure against Schedule with a
// callback bound once, the 100k-pending-RTO wheel stress, and the
// bound row's speedup over both the in-run closure row and the recorded
// container/heap baseline. Without the variable it skips, so ordinary
// test runs stay fast.
func TestEventLoopBenchRecord(t *testing.T) {
	path := os.Getenv("CTQO_BENCHOUT")
	if path == "" {
		t.Skip("set CTQO_BENCHOUT to record the event-loop benchmark")
	}
	closure := testing.Benchmark(BenchmarkEventLoopClosure)
	bound := testing.Benchmark(BenchmarkEventLoopBound)
	rto := testing.Benchmark(BenchmarkEventLoopRTO100k)
	baselineSpeedup := float64(eventLoopBaselineNs) / float64(bound.NsPerOp())
	record := map[string]any{
		"benchmark":             "des-event-loop",
		"cpus":                  runtime.NumCPU(),
		"closure_ns_per_op":     closure.NsPerOp(),
		"closure_allocs_per_op": closure.AllocsPerOp(),
		"closure_bytes_per_op":  closure.AllocedBytesPerOp(),
		"bound_ns_per_op":       bound.NsPerOp(),
		"bound_allocs_per_op":   bound.AllocsPerOp(),
		"bound_bytes_per_op":    bound.AllocedBytesPerOp(),
		"rto100k_ns_per_op":     rto.NsPerOp(),
		"rto100k_allocs_per_op": rto.AllocsPerOp(),
		"rto100k_bytes_per_op":  rto.AllocedBytesPerOp(),
		"speedup":               float64(closure.NsPerOp()) / float64(bound.NsPerOp()),
		"baseline_post_ns":      eventLoopBaselineNs,
		"baseline_speedup":      baselineSpeedup,
	}
	if err := benchrec.Update(path, "event_loop", record); err != nil {
		t.Fatal(err)
	}
	t.Logf("event_loop: closure %d ns/op %d allocs/op -> bound %d ns/op %d allocs/op, rto100k %d ns/op %d allocs/op, %.2fx the container/heap baseline",
		closure.NsPerOp(), closure.AllocsPerOp(), bound.NsPerOp(), bound.AllocsPerOp(),
		rto.NsPerOp(), rto.AllocsPerOp(), baselineSpeedup)
	if floor, enforce := benchFloor(t, eventLoopFloorRatio); enforce && baselineSpeedup < floor {
		t.Errorf("event_loop bound-callback path is %.2fx the container/heap baseline (%d ns/op vs %d ns/op), below the enforced %.1fx floor — kernel regression, or set CTQO_BENCH_FLOOR for noisy hardware (0 disables)",
			baselineSpeedup, bound.NsPerOp(), eventLoopBaselineNs, floor)
	}
}
