package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHDRBucketContinuity walks the full bucket range and checks that the
// index↔bounds mapping is a bijection with no gaps: every bucket's upper
// edge is the next bucket's lower edge, and every value maps back into
// the bucket whose bounds contain it.
func TestHDRBucketContinuity(t *testing.T) {
	h := NewHDRHistogram(HDRConfig{SigBits: 4, ExactCap: -1})
	n := numBuckets(4)
	var prevEnd time.Duration
	for idx := 0; idx < n; idx++ {
		lo, width := h.bucketBounds(idx)
		if lo != prevEnd {
			t.Fatalf("bucket %d starts at %d, want %d (gap or overlap)", idx, lo, prevEnd)
		}
		if width <= 0 {
			t.Fatalf("bucket %d has width %d", idx, width)
		}
		if got := h.bucketIdx(lo); got != idx {
			t.Fatalf("bucketIdx(lo=%d) = %d, want %d", lo, got, idx)
		}
		if got := h.bucketIdx(lo + width - 1); got != idx {
			t.Fatalf("bucketIdx(hi=%d) = %d, want %d", lo+width-1, got, idx)
		}
		prevEnd = lo + width
		if prevEnd < 0 { // wrapped past the int64 range: done
			break
		}
	}
}

// TestHDRRepresentativeError checks the headline accuracy contract: any
// bucket representative is within RelativeError of every value in the
// bucket.
func TestHDRRepresentativeError(t *testing.T) {
	for _, sigBits := range []int{1, 4, 7, 10} {
		h := NewHDRHistogram(HDRConfig{SigBits: sigBits, ExactCap: -1})
		maxErr := h.RelativeError()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20000; i++ {
			v := time.Duration(rng.Int63n(int64(time.Hour)) + 1)
			rep := h.representative(h.bucketIdx(v))
			relErr := math.Abs(float64(rep-v)) / float64(v)
			if relErr > maxErr {
				t.Fatalf("sigBits=%d v=%d rep=%d: relative error %.5f > %.5f",
					sigBits, v, rep, relErr, maxErr)
			}
		}
	}
}

// TestHDRExactModeMatchesRecorder pins the small-run contract: until
// ExactCap observations the histogram's quantiles equal the exact
// nearest-rank answers bit for bit.
func TestHDRExactModeMatchesRecorder(t *testing.T) {
	h := NewHDRHistogram(HDRConfig{})
	rng := rand.New(rand.NewSource(11))
	var values []time.Duration
	for i := 0; i < 500; i++ {
		v := time.Duration(rng.Int63n(int64(10 * time.Second)))
		values = append(values, v)
		h.Observe(v)
	}
	if !h.Exact() {
		t.Fatal("histogram spilled below ExactCap")
	}
	sorted := append([]time.Duration(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, p := range []float64{0, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		want := sorted[NearestRank(p, len(sorted))]
		if got := h.Quantile(p); got != want {
			t.Fatalf("Quantile(%v) = %v, want exact %v", p, got, want)
		}
	}
}

// TestHDRQuantileWithinRelativeError is the property test of the bounded
// contract: once spilled, every quantile stays within the configured
// relative error of the exact nearest-rank answer over a seeded workload
// that mixes uniform, exponential-ish and heavy-tail values.
func TestHDRQuantileWithinRelativeError(t *testing.T) {
	for _, sigBits := range []int{5, 7, 9} {
		h := NewHDRHistogram(HDRConfig{SigBits: sigBits, ExactCap: 100})
		rng := rand.New(rand.NewSource(int64(sigBits)))
		var values []time.Duration
		for i := 0; i < 50000; i++ {
			var v time.Duration
			switch i % 3 {
			case 0:
				v = time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
			case 1:
				v = time.Duration(float64(time.Second) * rng.ExpFloat64())
			default: // heavy tail, out to minutes
				v = time.Duration(rng.Int63n(int64(3 * time.Minute)))
			}
			values = append(values, v)
			h.Observe(v)
		}
		if h.Exact() {
			t.Fatal("histogram did not spill past ExactCap")
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
		maxErr := h.RelativeError()
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999} {
			exact := values[NearestRank(p, len(values))]
			got := h.Quantile(p)
			relErr := math.Abs(float64(got-exact)) / math.Max(float64(exact), 1)
			if relErr > maxErr {
				t.Errorf("sigBits=%d Quantile(%v) = %v, exact %v: relative error %.6f > %.6f",
					sigBits, p, got, exact, relErr, maxErr)
			}
		}
		// The extremes are exact regardless of bucketing.
		if h.Quantile(0) != values[0] || h.Quantile(1) != values[len(values)-1] {
			t.Errorf("sigBits=%d extremes: Quantile(0)=%v want %v, Quantile(1)=%v want %v",
				sigBits, h.Quantile(0), values[0], h.Quantile(1), values[len(values)-1])
		}
	}
}

// TestHDRMeanSumExact pins that bucketing never degrades sums: the mean
// is the exact mean whatever the retention state.
func TestHDRMeanSumExact(t *testing.T) {
	h := NewHDRHistogram(HDRConfig{ExactCap: 10})
	var sum time.Duration
	for i := 1; i <= 1000; i++ {
		v := time.Duration(i) * 7 * time.Millisecond
		sum += v
		h.Observe(v)
	}
	if h.Exact() {
		t.Fatal("expected spill")
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %v, want %v", h.Sum(), sum)
	}
	if want := sum / 1000; h.Mean() != want {
		t.Fatalf("Mean = %v, want %v", h.Mean(), want)
	}
	if h.Min() != 7*time.Millisecond || h.Max() != 7000*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

// TestHDRCumulativeCount checks CDF queries in both retention states.
func TestHDRCumulativeCount(t *testing.T) {
	h := NewHDRHistogram(HDRConfig{})
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.CumulativeCount(50 * time.Millisecond); got != 50 {
		t.Fatalf("exact CumulativeCount(50ms) = %d, want 50", got)
	}
	if got := h.CumulativeCount(0); got != 0 {
		t.Fatalf("exact CumulativeCount(0) = %d, want 0", got)
	}
	if got := h.CumulativeCount(time.Hour); got != 100 {
		t.Fatalf("exact CumulativeCount(1h) = %d, want 100", got)
	}

	spilled := NewHDRHistogram(HDRConfig{ExactCap: -1})
	for i := 1; i <= 100; i++ {
		spilled.Observe(time.Duration(i) * time.Millisecond)
	}
	got := spilled.CumulativeCount(50 * time.Millisecond)
	// Bucketed counts may shift by values within RelativeError of the
	// threshold; at sigBits=7 that is under 1% of 50ms, so at most one of
	// the 1ms-spaced values can straddle.
	if got < 49 || got > 51 {
		t.Fatalf("spilled CumulativeCount(50ms) = %d, want 50±1", got)
	}
	if spilled.CumulativeCount(-time.Second) != 0 {
		t.Fatal("negative threshold must count nothing")
	}
}

// TestHDRFootprintConstant pins the constant-memory claim at the
// histogram level: footprint after 10k and 1M observations is identical.
func TestHDRFootprintConstant(t *testing.T) {
	observe := func(n int) int64 {
		h := NewHDRHistogram(HDRConfig{})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(rng.Int63n(int64(time.Minute))))
		}
		return h.FootprintBytes()
	}
	small, big := observe(10_000), observe(1_000_000)
	if small != big {
		t.Fatalf("footprint grew with observations: %d bytes at 10k, %d at 1M", small, big)
	}
	if limit := int64(96 * 1024); big > limit {
		t.Fatalf("footprint %d bytes exceeds %d", big, limit)
	}
}

// TestHDRDefaultsAndClamps pins the config normalization.
func TestHDRDefaultsAndClamps(t *testing.T) {
	h := NewHDRHistogram(HDRConfig{})
	if cfg := h.Config(); cfg.SigBits != DefaultHDRSigBits || cfg.ExactCap != DefaultHDRExactCap {
		t.Fatalf("defaults = %+v", cfg)
	}
	if h := NewHDRHistogram(HDRConfig{SigBits: 99}); h.Config().SigBits != maxHDRSigBits {
		t.Fatalf("SigBits not clamped: %+v", h.Config())
	}
	noExact := NewHDRHistogram(HDRConfig{ExactCap: -1})
	if noExact.Exact() {
		t.Fatal("ExactCap<0 must disable exact mode")
	}
	noExact.Observe(-time.Second) // negative clamps to zero, not a panic
	if noExact.Min() != 0 || noExact.Count() != 1 {
		t.Fatalf("negative observation: min=%v count=%d", noExact.Min(), noExact.Count())
	}
	empty := NewHDRHistogram(HDRConfig{})
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 || empty.Min() != 0 ||
		empty.Max() != 0 || empty.CumulativeCount(time.Second) != 0 {
		t.Fatal("empty histogram should answer zeros")
	}
}

// TestHDREach checks the ascending-order enumeration contract in both
// states and that a fixed-bin Histogram rebuilt from Each conserves the
// total count.
func TestHDREach(t *testing.T) {
	h := NewHDRHistogram(HDRConfig{ExactCap: 8})
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i%97) * 10 * time.Millisecond)
	}
	var total int64
	prev := time.Duration(-1)
	h.Each(func(v time.Duration, c int64) {
		if v <= prev {
			t.Fatalf("Each not strictly ascending: %v after %v", v, prev)
		}
		prev = v
		total += c
	})
	if total != h.Count() {
		t.Fatalf("Each total = %d, want %d", total, h.Count())
	}
	rebuilt := NewHistogram(100*time.Millisecond, 2*time.Second)
	h.Each(func(v time.Duration, c int64) { rebuilt.ObserveN(v, c) })
	if rebuilt.Total() != h.Count() {
		t.Fatalf("rebuilt histogram total = %d, want %d", rebuilt.Total(), h.Count())
	}
}
