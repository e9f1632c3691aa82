package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"ctqosim/internal/metrics"
)

// This file is the big-n replication engine: hundreds of seeds partitioned
// into shards, each shard run serially on one Runner pool slot and folded
// into a mergeable accumulator, shards merged in shard order. Tail
// quantities of per-run metrics — the p99.9 of VLRT counts the paper's
// phenomenon lives in — need this scale; the same report gives the mean
// with a 95% confidence interval for a handful of seeds.
//
// The determinism contract (DESIGN.md §9) extends to sweeps: for a fixed
// SweepConfig (including shard size), the report — text, CSV and JSON —
// is byte-identical for every worker count, because shard partitioning
// depends only on (seeds, shard size) and merging happens in shard order.

// MeanCI is a sample mean with a 95% confidence half-width.
type MeanCI struct {
	// Mean is the sample mean.
	Mean float64
	// HalfWidth is the 95% confidence interval half-width (Student's t).
	HalfWidth float64
	// N is the number of runs.
	N int
}

// String implements fmt.Stringer.
func (m MeanCI) String() string {
	return fmt.Sprintf("%.1f ± %.1f (n=%d)", m.Mean, m.HalfWidth, m.N)
}

// SweepConfig describes a sharded seed sweep.
type SweepConfig struct {
	// Config is the scenario; its Seed is the sweep's first seed.
	Config Config
	// Seeds is the number of replications (seeds Seed..Seed+Seeds-1);
	// values below 1 clamp to 1.
	Seeds int
	// ShardSize is seeds per shard; 0 means one seed per shard, so every
	// sweep spreads across the pool. The report is byte-identical across
	// worker counts for any fixed shard size, and one-seed shards merged
	// in seed order give the same sums as one serial shard.
	ShardSize int
}

// metricAccum is the mergeable per-metric accumulator: moment sums for
// the mean and CI, plus the exact per-run values (in seed order) for tail
// quantiles. Merging finished MeanCIs would be lossy — a half-width
// cannot be reconstructed from two half-widths — so shards carry moments
// and samples instead, and statistics are computed once, after the merge.
type metricAccum struct {
	n          int
	sum, sumSq float64
	values     []float64
}

// observe folds one per-run value in.
func (a *metricAccum) observe(x float64) {
	a.n++
	a.sum += x
	a.sumSq += x * x
	a.values = append(a.values, x)
}

// merge folds another accumulator in; with shards merged in shard order
// the moment sums and the value order are reproducible.
func (a *metricAccum) merge(b *metricAccum) {
	a.n += b.n
	a.sum += b.sum
	a.sumSq += b.sumSq
	a.values = append(a.values, b.values...)
}

// ci computes the 95% Student's-t interval from the merged moments
// (equal to the two-pass computation to float rounding; see
// TestMetricAccumMatchesMeanCI).
func (a *metricAccum) ci() MeanCI {
	if a.n == 0 {
		return MeanCI{}
	}
	mean := a.sum / float64(a.n)
	if a.n == 1 {
		return MeanCI{Mean: mean, N: 1}
	}
	variance := (a.sumSq - a.sum*a.sum/float64(a.n)) / float64(a.n-1)
	if variance < 0 {
		variance = 0 // float rounding on near-constant samples
	}
	stderr := math.Sqrt(variance / float64(a.n))
	return MeanCI{Mean: mean, HalfWidth: tValue95(a.n-1) * stderr, N: a.n}
}

// summary sorts a copy of the merged values and reads the nearest-rank
// quantiles (rank ceil(p*n), matching metrics.Recorder.Percentile).
func (a *metricAccum) summary() MetricSweep {
	out := MetricSweep{N: a.n}
	ci := a.ci()
	out.Mean, out.CI95 = ci.Mean, ci.HalfWidth
	if a.n == 0 {
		return out
	}
	sorted := make([]float64, len(a.values))
	copy(sorted, a.values)
	sort.Float64s(sorted)
	rank := func(p float64) float64 {
		return sorted[metrics.NearestRank(p, len(sorted))]
	}
	out.P50, out.P90, out.P99, out.P999 = rank(0.50), rank(0.90), rank(0.99), rank(0.999)
	out.Min, out.Max = sorted[0], sorted[len(sorted)-1]
	return out
}

// shardAccum aggregates one shard's completed runs across all metrics.
type shardAccum struct {
	completed              int
	tput, vlrt, drops, p99 metricAccum
}

// observe folds one completed run in.
func (s *shardAccum) observe(res *Result) {
	s.completed++
	s.tput.observe(res.Throughput)
	s.vlrt.observe(float64(res.VLRTCount))
	s.drops.observe(float64(res.TotalDrops))
	s.p99.observe(float64(res.Recorder.Percentile(0.99).Milliseconds()))
}

// merge folds another shard in (callers merge in shard order).
func (s *shardAccum) merge(b *shardAccum) {
	s.completed += b.completed
	s.tput.merge(&b.tput)
	s.vlrt.merge(&b.vlrt)
	s.drops.merge(&b.drops)
	s.p99.merge(&b.p99)
}

// MetricSweep summarizes one per-run metric's distribution over a sweep:
// the mean with a 95% CI, and the nearest-rank tail quantiles of the
// per-run values.
type MetricSweep struct {
	// N is the number of completed runs.
	N int `json:"n"`
	// Mean is the cross-run sample mean.
	Mean float64 `json:"mean"`
	// CI95 is the 95% Student's-t half-width around Mean.
	CI95 float64 `json:"ci95"`
	// P50..P999 are nearest-rank quantiles of the per-run values.
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	// Min and Max bound the per-run values.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// MeanCI returns the mean±CI view of the metric.
func (m MetricSweep) MeanCI() MeanCI {
	return MeanCI{Mean: m.Mean, HalfWidth: m.CI95, N: m.N}
}

// SweepStats is the report of a sharded seed sweep.
type SweepStats struct {
	// Scenario is the swept configuration's name.
	Scenario string `json:"scenario"`
	// SeedStart is the first seed; the sweep covers
	// SeedStart..SeedStart+Requested-1.
	SeedStart int64 `json:"seedStart"`
	// Requested is the number of seeds asked for.
	Requested int `json:"requested"`
	// Completed is the number of runs that finished; Failed the rest
	// (failed runs are detailed in the error returned alongside).
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// ShardSize and Shards record the partition the report was merged
	// under (the report is worker-count-independent for a fixed partition).
	ShardSize int `json:"shardSize"`
	Shards    int `json:"shards"`

	// Throughput is req/s per run.
	Throughput MetricSweep `json:"throughput"`
	// VLRT is VLRT requests per run — P999 here is the paper-motivating
	// p99.9 of per-run VLRT counts.
	VLRT MetricSweep `json:"vlrtPerRun"`
	// Drops is dropped packets per run.
	Drops MetricSweep `json:"dropsPerRun"`
	// P99Millis is each run's p99 response time in milliseconds.
	P99Millis MetricSweep `json:"p99Millis"`
}

// Sweep partitions the seed range into shards, fans the shards across
// this runner's pool, and merges the shard accumulators in shard order.
//
// Sweep follows the partial-results contract: a failed seed contributes a
// "seed N: ..." entry to the joined error (grouped by shard, shards in
// order, seeds in order within a shard) without discarding the rest of
// the sweep; SweepStats counts it under Failed. Seeds that would wrap
// past MaxInt64 never run and are reported the same way.
func (r *Runner) Sweep(sc SweepConfig) (*SweepStats, error) {
	cfg := sc.Config.withDefaults()
	n := sc.Seeds
	if n < 1 {
		n = 1
	}
	shardSize := max(sc.ShardSize, 1)
	numShards := (n + shardSize - 1) / shardSize
	valid := validSeedSpan(cfg.Seed, n)

	shards := make([]*shardAccum, numShards)
	err := r.Do(numShards, func(s int) error {
		acc := &shardAccum{}
		shards[s] = acc
		var errs []error
		hi := min((s+1)*shardSize, n)
		for i := s * shardSize; i < hi; i++ {
			if i >= valid {
				errs = append(errs, seedOverflowError(i, cfg.Seed))
				continue
			}
			run := cfg
			run.Seed = cfg.Seed + int64(i)
			res, err := New(run).Run()
			if err != nil {
				errs = append(errs, fmt.Errorf("seed %d: %w", run.Seed, err))
				continue
			}
			acc.observe(res)
		}
		return errors.Join(errs...)
	})

	total := &shardAccum{}
	for _, sh := range shards {
		total.merge(sh)
	}
	stats := &SweepStats{
		Scenario:   cfg.Name,
		SeedStart:  cfg.Seed,
		Requested:  n,
		Completed:  total.completed,
		Failed:     n - total.completed,
		ShardSize:  shardSize,
		Shards:     numShards,
		Throughput: total.tput.summary(),
		VLRT:       total.vlrt.summary(),
		Drops:      total.drops.summary(),
		P99Millis:  total.p99.summary(),
	}
	if err != nil {
		return stats, fmt.Errorf("sweep: %w", err)
	}
	return stats, nil
}

// validSeedSpan returns how many of the seeds base+0..n-1 fit in int64
// without wrapping. Seeds past the span are reported as errors instead of
// silently running with a wrapped (negative) seed.
func validSeedSpan(base int64, n int) int {
	if base <= math.MaxInt64-int64(n-1) {
		return n
	}
	span := math.MaxInt64 - base + 1 // base >= MaxInt64-n+2 > 0, no overflow
	if span < 0 {
		return 0
	}
	return int(span)
}

// seedOverflowError describes one replication whose seed would wrap.
func seedOverflowError(i int, base int64) error {
	return fmt.Errorf("replication %d: seed range overflows int64 (base seed %d + %d)", i, base, i)
}

// tValue95 returns the two-sided 95% Student's t critical value. Exact
// table values cover df ≤ 40; beyond that a Cornish–Fisher expansion
// around the normal quantile tracks the true value to ~1e-3 (2.021 at
// df=40, 2.009 at 50, 2.000 at 60, 1.980 at 120) and decays monotonically
// to z ≈ 1.96 — no cliff at the old df=30 table edge, which understated
// CI half-widths by ~2-4% exactly where sharded sweeps land.
func tValue95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
		2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
		2.048, 2.045, 2.042, 2.040, 2.037, 2.035, 2.032, 2.030, 2.028,
		2.026, 2.024, 2.023, 2.021,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	// t_{0.975}(df) ≈ z + (z³+z)/(4·df) + (5z⁵+16z³+3z)/(96·df²).
	const z = 1.959964
	fdf := float64(df)
	z3 := z * z * z
	z5 := z3 * z * z
	return z + (z3+z)/(4*fdf) + (5*z5+16*z3+3*z)/(96*fdf*fdf)
}

// metricRows pairs each metric with its CSV/table label, in fixed order.
func (s *SweepStats) metricRows() []struct {
	label string
	m     MetricSweep
} {
	return []struct {
		label string
		m     MetricSweep
	}{
		{"throughput_req_s", s.Throughput},
		{"vlrt_per_run", s.VLRT},
		{"drops_per_run", s.Drops},
		{"p99_ms", s.P99Millis},
	}
}

// CSV renders the per-metric report as CSV: one row per metric with the
// mean, CI half-width and nearest-rank quantiles of the per-run values.
// %g keeps full float precision, so the bytes are a determinism witness.
func (s *SweepStats) CSV() []byte {
	var b strings.Builder
	b.WriteString("metric,n,mean,ci95,p50,p90,p99,p999,min,max\n")
	for _, row := range s.metricRows() {
		m := row.m
		fmt.Fprintf(&b, "%s,%d,%g,%g,%g,%g,%g,%g,%g,%g\n",
			row.label, m.N, m.Mean, m.CI95, m.P50, m.P90, m.P99, m.P999, m.Min, m.Max)
	}
	return []byte(b.String())
}

// JSON renders the report as indented JSON.
func (s *SweepStats) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// String renders the human-readable report.
func (s *SweepStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: seeds %d..%d (%d requested, %d completed, %d failed; %d shards × %d)\n",
		s.Scenario, s.SeedStart, s.SeedStart+int64(s.Requested)-1,
		s.Requested, s.Completed, s.Failed, s.Shards, s.ShardSize)
	fmt.Fprintf(&b, "  %-20s %-24s %10s %10s %10s %10s\n",
		"metric", "mean ± 95% CI", "p50", "p99", "p99.9", "max")
	labels := []string{"throughput [req/s]", "VLRT per run", "drops per run", "p99 [ms]"}
	for i, row := range s.metricRows() {
		m := row.m
		fmt.Fprintf(&b, "  %-20s %-24s %10.6g %10.6g %10.6g %10.6g\n",
			labels[i], m.MeanCI().String(), m.P50, m.P99, m.P999, m.Max)
	}
	return b.String()
}
