package metrics

import (
	"math/bits"
	"slices"
	"sort"
	"time"
)

// HDR histogram constants. Seven significant bits keep every bucket
// representative within 2^-8 ≈ 0.4% of any value in the bucket while the
// whole dense count array stays under 60 KB — constant whatever the
// request count.
const (
	// DefaultHDRSigBits is the precision: each power-of-two range is
	// split into 2^DefaultHDRSigBits linear sub-buckets.
	DefaultHDRSigBits = 7
	// DefaultHDRExactCap is RetainBounded's exact small-run capacity:
	// up to this many raw values are retained verbatim, so short runs
	// report exact nearest-rank quantiles.
	DefaultHDRExactCap = 1024
)

// HDRHistogram is a log-linear latency histogram: durations are
// bucketed by (power-of-two group, linear sub-bucket), so memory is a
// fixed numBuckets counters regardless of how many values are observed,
// and any bucket representative is within RelativeError of every value
// in the bucket. Small runs stay exact: until the exact capacity is
// exceeded the raw values are retained and quantiles use the same
// nearest-rank rule as Recorder.Percentile.
type HDRHistogram struct {
	exactCap int
	counts   []int64
	// exact holds the raw values of a small run, in observation order;
	// nil once spilled (or when exactCap is 0). sorted caches them in
	// ascending order so repeated quantile queries don't re-sort; Observe
	// clears it.
	exact   []time.Duration
	sorted  []time.Duration
	spilled bool

	count    int64
	sum      int64 // nanoseconds; exact at any realistic scale
	min, max time.Duration
}

// NewHDRHistogram creates an empty histogram that answers exactly until
// its exactCap+1-th observation spills the retained values into buckets.
// An exactCap of zero or less buckets from the first observation;
// math.MaxInt never spills.
func NewHDRHistogram(exactCap int) *HDRHistogram {
	h := &HDRHistogram{exactCap: max(exactCap, 0)}
	if h.exactCap == 0 {
		h.spill()
	}
	return h
}

// RelativeError returns the worst-case relative error of any bucketed
// representative: 2^-(DefaultHDRSigBits+1). Exact-mode answers have zero
// error.
func (h *HDRHistogram) RelativeError() float64 {
	return 1 / float64(uint64(2)<<DefaultHDRSigBits)
}

// numBuckets is the dense array size: 2^DefaultHDRSigBits unit buckets
// plus one 2^DefaultHDRSigBits-wide group per remaining power of two of
// the int64 range.
const numBuckets = (63 - DefaultHDRSigBits + 1) << DefaultHDRSigBits

// bucketIdx maps a non-negative duration to its bucket.
//
//lint:hotpath
func (h *HDRHistogram) bucketIdx(d time.Duration) int {
	v := uint64(d)
	const b = DefaultHDRSigBits
	if v < 1<<b {
		return int(v)
	}
	msb := bits.Len64(v) - 1
	shift := uint(msb) - b
	// Groups are laid out contiguously: group s (values needing s extra
	// bits) occupies [s*2^b + 2^b, s*2^b + 2^(b+1)).
	return int(shift)<<b + int(v>>shift)
}

// bucketBounds returns the [lo, lo+width) value range of bucket idx.
func (h *HDRHistogram) bucketBounds(idx int) (lo time.Duration, width time.Duration) {
	const b = DefaultHDRSigBits
	if idx < 1<<b {
		return time.Duration(idx), 1
	}
	// Undo the layout above: group s holds idx = s*2^b + (v >> s) with
	// v>>s in [2^b, 2^(b+1)), i.e. idx in [(s+1)*2^b, (s+2)*2^b).
	s := uint(idx>>b) - 1
	sub := idx - int(s)<<int(b)
	return time.Duration(uint64(sub) << s), time.Duration(uint64(1) << s)
}

// representative returns the deterministic stand-in value reported for
// every sample in bucket idx: the bucket midpoint (exact for unit-wide
// buckets).
func (h *HDRHistogram) representative(idx int) time.Duration {
	lo, width := h.bucketBounds(idx)
	return lo + width/2
}

// Observe adds one duration (negative values clamp to zero).
//
//lint:hotpath HDR record path
func (h *HDRHistogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN adds n copies of a duration. Once spilled (the steady state of
// any long run) recording is a handful of integer ops into the dense
// count array and never allocates.
//
//lint:hotpath HDR record path
func (h *HDRHistogram) ObserveN(d time.Duration, n int64) {
	if n <= 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count += n
	h.sum += int64(d) * n
	if !h.spilled {
		if len(h.exact)+int(n) <= h.exactCap {
			h.sorted = nil
			for i := int64(0); i < n; i++ {
				h.exact = append(h.exact, d) //lint:allow hotpath exact side, bounded by the exact capacity (spills once) or unlimited by the caller's choice
			}
			return
		}
		h.spill()
	}
	h.counts[h.bucketIdx(d)] += n
}

// spill moves the exact values into buckets and switches the histogram
// to bucketed mode permanently.
func (h *HDRHistogram) spill() {
	if h.spilled {
		return
	}
	h.counts = make([]int64, numBuckets) //lint:allow hotpath one-time spill to the fixed dense array
	for _, v := range h.exact {
		h.counts[h.bucketIdx(v)]++
	}
	h.exact, h.sorted = nil, nil
	h.spilled = true
}

// Exact reports whether the histogram still answers exactly (small-run
// mode, no value bucketed yet).
func (h *HDRHistogram) Exact() bool { return !h.spilled }

// Count returns the number of observed values.
func (h *HDRHistogram) Count() int64 { return h.count }

// Sum returns the exact sum of all observed values.
func (h *HDRHistogram) Sum() time.Duration { return time.Duration(h.sum) }

// Mean returns the exact mean (bucketing never degrades sums).
func (h *HDRHistogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Min returns the exact smallest observed value.
func (h *HDRHistogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observed value.
func (h *HDRHistogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the p-quantile (nearest-rank, matching
// Recorder.Percentile): exact in small-run mode, within RelativeError
// once spilled. p<=0 returns the exact min, p>=1 the exact max.
func (h *HDRHistogram) Quantile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	if !h.spilled {
		sorted := h.sortedExact()
		return sorted[NearestRank(p, len(sorted))]
	}
	rank := int64(NearestRank(p, int(h.count)))
	var cum int64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum > rank {
			return clampDuration(h.representative(idx), h.min, h.max)
		}
	}
	return h.max
}

// CumulativeCount returns how many observed values are <= d: exact in
// small-run mode; once spilled, buckets entirely at or below d count in
// full and a straddling bucket counts if its representative is <= d, so
// the answer is exact up to values within RelativeError of d.
func (h *HDRHistogram) CumulativeCount(d time.Duration) int64 {
	if h.count == 0 {
		return 0
	}
	if !h.spilled {
		sorted := h.sortedExact()
		return int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > d }))
	}
	if d < 0 {
		return 0
	}
	var cum int64
	limit := h.bucketIdx(d)
	for idx := 0; idx <= limit && idx < len(h.counts); idx++ {
		c := h.counts[idx]
		if c == 0 {
			continue
		}
		if idx == limit && h.representative(idx) > d {
			break
		}
		cum += c
	}
	return cum
}

// Each calls fn once per distinct retained value in ascending order: the
// sorted raw values in small-run mode, the bucket representatives with
// their counts once spilled. Reconstructing a fixed-bin Histogram from
// Each keeps every count within RelativeError of its true bin.
func (h *HDRHistogram) Each(fn func(value time.Duration, count int64)) {
	if !h.spilled {
		sorted := h.sortedExact()
		for i := 0; i < len(sorted); {
			j := i
			for j < len(sorted) && sorted[j] == sorted[i] {
				j++
			}
			fn(sorted[i], int64(j-i))
			i = j
		}
		return
	}
	for idx, c := range h.counts {
		if c > 0 {
			fn(h.representative(idx), c)
		}
	}
}

// sortedExact returns the exact values in ascending order without
// mutating the observation-order slice, sorting only after new values.
func (h *HDRHistogram) sortedExact() []time.Duration {
	if h.sorted == nil && len(h.exact) > 0 {
		h.sorted = append([]time.Duration(nil), h.exact...)
		slices.Sort(h.sorted)
	}
	return h.sorted
}

// FootprintBytes returns a deterministic accounting of the histogram's
// retained memory: the dense count array plus any exact values and their
// sorted copy. It is a constant once spilled — never a function of the
// request count.
func (h *HDRHistogram) FootprintBytes() int64 {
	return int64(cap(h.counts)+cap(h.exact)+cap(h.sorted)) * 8
}

func clampDuration(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
