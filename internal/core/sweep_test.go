package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// tinySweepConfig is a sub-millisecond scenario for big-n sweep tests.
func tinySweepConfig() Config {
	return Config{Name: "tiny-sweep", Clients: 30, WarmUp: time.Second, Duration: 2 * time.Second}
}

func TestSweepBasics(t *testing.T) {
	stats, err := NewRunner(0).Sweep(SweepConfig{Config: tinySweepConfig(), Seeds: 60, ShardSize: 16})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if stats.Requested != 60 || stats.Completed != 60 || stats.Failed != 0 {
		t.Fatalf("requested/completed/failed = %d/%d/%d", stats.Requested, stats.Completed, stats.Failed)
	}
	if stats.SeedStart != 1 {
		t.Fatalf("seedStart = %d, want the defaulted 1", stats.SeedStart)
	}
	if stats.Shards != 4 || stats.ShardSize != 16 {
		t.Fatalf("shards = %d × %d, want 4 × 16", stats.Shards, stats.ShardSize)
	}
	if stats.Throughput.N != 60 || stats.Throughput.Mean <= 0 {
		t.Fatalf("throughput = %+v", stats.Throughput)
	}
	for _, m := range []MetricSweep{stats.Throughput, stats.VLRT, stats.Drops, stats.P99Millis} {
		if m.Min > m.P50 || m.P50 > m.P90 || m.P90 > m.P99 || m.P99 > m.P999 || m.P999 > m.Max {
			t.Fatalf("quantiles out of order: %+v", m)
		}
		if m.Mean-m.CI95 > m.Mean || m.Mean+m.CI95 < m.Mean {
			t.Fatalf("CI does not bracket the mean: %+v", m)
		}
	}
}

func TestSweepClampsAndDefaults(t *testing.T) {
	stats, err := NewRunner(0).Sweep(SweepConfig{Config: tinySweepConfig()})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if stats.Requested != 1 || stats.Completed != 1 {
		t.Fatalf("zero Seeds should clamp to 1, got %d/%d", stats.Requested, stats.Completed)
	}
	if stats.ShardSize != 1 || stats.Shards != 1 {
		t.Fatalf("shards = %d × %d, want the default of one seed per shard", stats.Shards, stats.ShardSize)
	}
	if stats.Throughput.CI95 != 0 {
		t.Fatalf("single-run CI half-width = %v, want 0", stats.Throughput.CI95)
	}
}

// TestSweepFig3 runs the Fig. 3 scenario over three seeds, by default one
// per shard so the runs spread across the pool: the mean throughput sits
// at the paper's ~1000 req/s, the runs drop packets, the seeds differ,
// and the CI brackets the mean.
func TestSweepFig3(t *testing.T) {
	cfg := shorten(Figure3Config(), 20*time.Second)
	cfg.Trace = false
	stats, err := NewRunner(0).Sweep(SweepConfig{Config: cfg, Seeds: 3})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if stats.Completed != 3 || stats.Throughput.N != 3 {
		t.Fatalf("completed = %d, throughput N = %d, want 3", stats.Completed, stats.Throughput.N)
	}
	if stats.Shards != 3 {
		t.Fatalf("shards = %d × %d, want 3 one-seed shards", stats.Shards, stats.ShardSize)
	}
	if stats.Throughput.Min == stats.Throughput.Max {
		t.Fatalf("all three runs had throughput %v: the seeds were reused", stats.Throughput.Min)
	}
	if stats.Throughput.Mean < 900 || stats.Throughput.Mean > 1100 {
		t.Fatalf("mean throughput = %v", stats.Throughput.Mean)
	}
	if stats.Drops.Mean <= 0 {
		t.Fatal("mean drops should be positive in the Fig. 3 scenario")
	}
	if tp := stats.Throughput; tp.Mean-tp.CI95 > tp.Mean || tp.Mean+tp.CI95 < tp.Mean {
		t.Fatal("CI does not bracket the mean")
	}
}

// meanCI is the two-pass reference for metricAccum.ci: the mean first,
// then the squared deviations from it.
func meanCI(xs []float64) MeanCI {
	n := len(xs)
	if n == 0 {
		return MeanCI{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return MeanCI{Mean: mean, N: 1}
	}
	var sq float64
	for _, x := range xs {
		d := x - mean
		sq += d * d
	}
	stderr := math.Sqrt(sq / float64(n-1) / float64(n))
	return MeanCI{Mean: mean, HalfWidth: tValue95(n-1) * stderr, N: n}
}

// accumCI folds xs into one accumulator and returns its interval.
func accumCI(xs ...float64) MeanCI {
	var a metricAccum
	for _, x := range xs {
		a.observe(x)
	}
	return a.ci()
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestMetricAccumMatchesMeanCI pins the moment-based CI to the two-pass
// meanCI, including after an arbitrary shard split: merging
// accumulators must lose nothing (the reason finished MeanCIs are never
// merged — they can't satisfy this test).
func TestMetricAccumMatchesMeanCI(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2.5, 6, 5.25, 3.5, 8.75, 9.5}
	want := meanCI(vals)
	for _, split := range []int{0, 1, 5, len(vals)} {
		var a, b, merged metricAccum
		for _, v := range vals[:split] {
			a.observe(v)
		}
		for _, v := range vals[split:] {
			b.observe(v)
		}
		merged.merge(&a)
		merged.merge(&b)
		got := merged.ci()
		if got.N != want.N || relDiff(got.Mean, want.Mean) > 1e-12 ||
			relDiff(got.HalfWidth, want.HalfWidth) > 1e-9 {
			t.Errorf("split %d: moments CI %+v, meanCI %+v", split, got, want)
		}
	}
	var empty metricAccum
	if empty.ci() != (MeanCI{}) {
		t.Error("empty accumulator should yield a zero MeanCI")
	}
	var constant metricAccum
	for i := 0; i < 4; i++ {
		constant.observe(7)
	}
	if ci := constant.ci(); ci.HalfWidth != 0 {
		t.Errorf("constant samples half-width = %v, want 0", ci.HalfWidth)
	}
}

// TestSweepSeedOverflowPartial: a sweep whose seed range runs past
// MaxInt64 completes the valid prefix and reports each wrapping seed in
// the joined error — the shard holding them is partially (or entirely)
// invalid, and the rest of the sweep is unaffected.
func TestSweepSeedOverflowPartial(t *testing.T) {
	cfg := tinySweepConfig()
	cfg.Seed = math.MaxInt64 - 6 // seeds +0..6 fit, +7..9 wrap
	stats, err := NewRunner(0).Sweep(SweepConfig{Config: cfg, Seeds: 10, ShardSize: 4})
	if err == nil {
		t.Fatal("overflowing sweep returned nil error")
	}
	if got := strings.Count(err.Error(), "overflows int64"); got != 3 {
		t.Fatalf("error mentions %d overflow seeds, want 3:\n%v", got, err)
	}
	if stats.Completed != 7 || stats.Failed != 3 {
		t.Fatalf("completed/failed = %d/%d, want 7/3", stats.Completed, stats.Failed)
	}
	if stats.Throughput.N != 7 {
		t.Fatalf("partial stats N = %d, want 7", stats.Throughput.N)
	}
}

// TestSweepReportIncludesVLRTTail pins the report surface the sweep
// exists for: the p99.9 of per-run VLRT counts must be present (and
// coherent) in all three renderings.
func TestSweepReportIncludesVLRTTail(t *testing.T) {
	stats, err := NewRunner(0).Sweep(SweepConfig{Config: tinySweepConfig(), Seeds: 30})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if stats.VLRT.P999 < stats.VLRT.P50 || stats.VLRT.P999 > stats.VLRT.Max {
		t.Fatalf("VLRT p99.9 = %v outside [p50=%v, max=%v]", stats.VLRT.P999, stats.VLRT.P50, stats.VLRT.Max)
	}
	csv := string(stats.CSV())
	if !strings.Contains(csv, "p999") || !strings.Contains(csv, "vlrt_per_run") {
		t.Fatalf("CSV missing the VLRT p99.9 column:\n%s", csv)
	}
	js, err := stats.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if !strings.Contains(string(js), `"vlrtPerRun"`) || !strings.Contains(string(js), `"p999"`) {
		t.Fatalf("JSON missing vlrtPerRun.p999:\n%s", js)
	}
	if !strings.Contains(stats.String(), "p99.9") {
		t.Fatalf("text report missing p99.9 column:\n%s", stats)
	}
}

func TestMeanCIString(t *testing.T) {
	s := MeanCI{Mean: 990.4, HalfWidth: 12.3, N: 5}.String()
	if !strings.Contains(s, "990.4") || !strings.Contains(s, "n=5") {
		t.Fatalf("String = %q", s)
	}
}

func TestMeanCIKnownValue(t *testing.T) {
	// {1,2,3}: mean 2, sd 1, stderr 1/sqrt(3), t(2)=4.303.
	ci := accumCI(1, 2, 3)
	if ci.Mean != 2 {
		t.Fatalf("mean = %v", ci.Mean)
	}
	want := 4.303 / math.Sqrt(3)
	if math.Abs(ci.HalfWidth-want) > 1e-9 {
		t.Fatalf("half-width = %v, want %v", ci.HalfWidth, want)
	}
}

// Property: the CI always brackets the mean, and is zero for constant
// samples.
func TestPropertyMeanCI(t *testing.T) {
	f := func(vals []float64) bool {
		// Clamp to a sane measurement range: metric values are req/s or
		// counts, never near float64 extremes where the sums overflow.
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = math.Mod(v, 1e9)
		}
		ci := accumCI(vals...)
		if len(vals) == 0 {
			return ci == MeanCI{}
		}
		return ci.Mean-ci.HalfWidth <= ci.Mean+1e-9 && ci.Mean+ci.HalfWidth >= ci.Mean-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if constant := accumCI(5, 5, 5, 5); constant.HalfWidth != 0 {
		t.Fatalf("constant samples half-width = %v", constant.HalfWidth)
	}
}

func TestTValueTable(t *testing.T) {
	if tValue95(1) != 12.706 || tValue95(30) != 2.042 {
		t.Fatal("t-table wrong")
	}
	// True two-sided 95% values past the table edge; the expansion must
	// track them to ~1e-3, not jump to 1.96 at df=31.
	for _, tt := range []struct {
		df   int
		want float64
	}{
		{40, 2.021}, {50, 2.009}, {60, 2.000}, {80, 1.990},
		{100, 1.984}, {120, 1.980}, {1000, 1.962},
	} {
		if got := tValue95(tt.df); math.Abs(got-tt.want) > 2e-3 {
			t.Errorf("tValue95(%d) = %v, want ~%v", tt.df, got, tt.want)
		}
	}
	if got := tValue95(1 << 30); math.Abs(got-1.96) > 1e-4 {
		t.Errorf("asymptotic t = %v, want ~1.96", got)
	}
	if tValue95(0) != 0 {
		t.Fatal("df=0 should return 0")
	}
}

// TestTValueMonotone sweeps df across the table edge and the expansion:
// the critical value must be strictly decreasing (more data, tighter CI)
// and never dip below the normal quantile. The old implementation jumped
// from 2.042 at df=30 straight to 1.96 at df=31.
func TestTValueMonotone(t *testing.T) {
	prev := tValue95(1)
	for df := 2; df <= 2000; df++ {
		cur := tValue95(df)
		if cur >= prev {
			t.Fatalf("tValue95(%d) = %v >= tValue95(%d) = %v; not decreasing", df, cur, df-1, prev)
		}
		if cur < 1.9599 {
			t.Fatalf("tValue95(%d) = %v below the normal quantile", df, cur)
		}
		prev = cur
	}
	// The old cliff: 2.042 -> 1.96 was a 4% understatement. The step at
	// the table edge must now be a smooth ~0.1%.
	if drop := tValue95(30) - tValue95(31); drop > 0.005 {
		t.Fatalf("df=30 -> 31 step = %v, want < 0.005", drop)
	}
	if drop := tValue95(40) - tValue95(41); drop > 0.005 {
		t.Fatalf("df=40 -> 41 step = %v, want < 0.005", drop)
	}
}

func TestValidSeedSpan(t *testing.T) {
	tests := []struct {
		base int64
		n    int
		want int
	}{
		{1, 5, 5},
		{math.MaxInt64 - 4, 5, 5},
		{math.MaxInt64 - 3, 5, 4},
		{math.MaxInt64, 5, 1},
		{math.MaxInt64, 1, 1},
		{-10, 5, 5},
	}
	for _, tt := range tests {
		if got := validSeedSpan(tt.base, tt.n); got != tt.want {
			t.Errorf("validSeedSpan(%d, %d) = %d, want %d", tt.base, tt.n, got, tt.want)
		}
	}
}
