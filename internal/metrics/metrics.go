// Package metrics provides the fine-grained measurement layer of the
// reproduction: a monitor that samples queue depths and CPU state at 50ms
// resolution (the paper's collectl configuration), a recorder for
// end-to-end request latencies, and the histogram/percentile helpers used
// to regenerate the paper's figures.
package metrics

import (
	"math"
	"sort"
	"time"

	"ctqosim/internal/workload"
)

// VLRTThreshold is the paper's criterion for a very long response time
// request.
const VLRTThreshold = 3 * time.Second

// Retention selects how many response times the recorder keeps verbatim.
// Every other statistic is an exact aggregate in both modes.
type Retention int

const (
	// RetainAll keeps every response time: the histograms' exact side is
	// unlimited, so every quantile is exact. It is the default, used by
	// small runs and the byte-identity tests.
	RetainAll Retention = iota
	// RetainBounded keeps at most DefaultHDRExactCap response times per
	// histogram; past that they spill into fixed buckets, so memory is
	// O(1) in the request count and percentiles are within the
	// histogram's RelativeError of the exact answer.
	RetainBounded
)

// exactCap returns the histograms' exact capacity the retention selects:
// DefaultHDRExactCap for RetainBounded, unlimited for RetainAll.
func (r Retention) exactCap() int {
	if r == RetainBounded {
		return DefaultHDRExactCap
	}
	return math.MaxInt
}

// Recorder collects completed requests. It implements workload.Sink.
// A warm-up cutoff excludes ramp-up artifacts from statistics. It keeps
// aggregates only, never the requests: response times go to HDR
// histograms (one overall, one per class) and everything countable to
// exact counters.
//
// Retention and SeriesWindow must be set before the first Record. Not
// safe for concurrent use.
type Recorder struct {
	// WarmUp excludes requests submitted before this simulated time from
	// all statistics.
	WarmUp time.Duration
	// Retention selects the histograms' exact capacity: unlimited
	// (RetainAll, the default) or DefaultHDRExactCap (RetainBounded).
	Retention Retention
	// SeriesWindow is the VLRTSeries bucketing window (normally the
	// monitor interval). Zero disables the VLRT series.
	SeriesWindow time.Duration

	// Aggregates, created on the first record.
	all          classAccum // every request's
	classes      map[string]*classAccum
	vlrtAll      []int
	vlrtByServer map[string][]int
}

// classAccum is the aggregate of a set of requests: all of them, or one
// class's, behind ByClass.
type classAccum struct {
	hdr    *HDRHistogram
	vlrt   int
	failed int
}

var _ workload.Sink = (*Recorder)(nil)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record implements workload.Sink. It is part of the hot-path allocation
// contract: after the one-time aggregate and per-class initializations
// and once the histograms have spilled (bounded retention), recording a
// request allocates nothing.
//
//lint:hotpath HDR record path (bounded retention)
func (r *Recorder) Record(req *workload.Request) {
	if req.Submitted < r.WarmUp {
		return
	}
	if r.all.hdr == nil {
		r.initAggregates() //lint:allow hotpath first record initializes the fixed aggregates
	}
	ca := r.classes[req.Class.Name]
	if ca == nil {
		ca = r.newClass(req.Class.Name) //lint:allow hotpath first request of a class; the class mix is fixed
	}
	rt, vlrt := req.ResponseTime(), req.VLRT()
	for _, acc := range [...]*classAccum{&r.all, ca} {
		acc.hdr.Observe(rt)
		if vlrt {
			acc.vlrt++
		}
		if req.Failed {
			acc.failed++
		}
	}
	if vlrt && r.SeriesWindow > 0 {
		idx := int((req.Submitted - r.WarmUp) / r.SeriesWindow)
		r.vlrtAll = growCount(r.vlrtAll, idx)
		if s := req.DroppedBy(); s != "" {
			r.vlrtByServer[s] = growCount(r.vlrtByServer[s], idx)
		}
	}
}

// initAggregates creates the aggregates on the first record.
func (r *Recorder) initAggregates() {
	r.all.hdr = NewHDRHistogram(r.Retention.exactCap())
	r.classes = make(map[string]*classAccum)
	r.vlrtByServer = make(map[string][]int)
}

// newClass creates and registers the accumulator for one interaction
// class, once per class name.
func (r *Recorder) newClass(name string) *classAccum {
	ca := &classAccum{hdr: NewHDRHistogram(r.Retention.exactCap())}
	r.classes[name] = ca
	return ca
}

// growCount extends s so index idx exists, increments it, and returns the
// slice.
func growCount(s []int, idx int) []int {
	if idx < 0 {
		return s
	}
	for len(s) <= idx {
		s = append(s, 0) //lint:allow hotpath the window count grows with the horizon, not the request count
	}
	s[idx]++
	return s
}

// Len returns the number of recorded requests.
func (r *Recorder) Len() int {
	if r.all.hdr == nil {
		return 0
	}
	return int(r.all.hdr.Count())
}

// ResponseTimes returns a new slice of the recorded response times in
// record order, or nil once the histogram has spilled (bounded retention
// past DefaultHDRExactCap requests).
func (r *Recorder) ResponseTimes() []time.Duration {
	if r.all.hdr == nil || !r.all.hdr.Exact() {
		return nil
	}
	return append([]time.Duration(nil), r.all.hdr.exact...)
}

// Throughput returns completed requests per second over the window
// [WarmUp, until].
func (r *Recorder) Throughput(until time.Duration) float64 {
	span := (until - r.WarmUp).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(r.Len()) / span
}

// Mean returns the mean response time (exact in both retention modes:
// sums never degrade under bucketing).
func (r *Recorder) Mean() time.Duration {
	if r.all.hdr == nil {
		return 0
	}
	return r.all.hdr.Mean()
}

// NearestRank returns the 0-based index of the p-quantile of n ascending
// samples under the nearest-rank definition: the smallest index i such
// that (i+1)/n >= p, i.e. ceil(p*n)-1. The tiny relative slack absorbs
// float error in p*n (0.07*100 is 7.000000000000001 in binary), which
// would otherwise bump exact ranks up by one.
func NearestRank(p float64, n int) int {
	pn := p * float64(n)
	idx := int(math.Ceil(pn-pn*1e-12)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Percentile returns the p-quantile (0 < p <= 1) of response times using
// the nearest-rank method (rank ceil(p*n)): exact while the histogram
// keeps every value, within its RelativeError once spilled.
func (r *Recorder) Percentile(p float64) time.Duration {
	if r.all.hdr == nil {
		return 0
	}
	return r.all.hdr.Quantile(p)
}

// VLRTCount returns the number of recorded requests slower than the
// 3-second threshold.
func (r *Recorder) VLRTCount() int { return r.all.vlrt }

// FailedCount returns the number of requests that never completed
// successfully.
func (r *Recorder) FailedCount() int { return r.all.failed }

// VLRTSeries counts VLRT requests per SeriesWindow up to until, bucketed
// by submission time (the paper's Figs. 3c/5c/7c). If server is
// non-empty, only requests whose first drop happened at that server are
// counted. Nil when SeriesWindow is zero.
func (r *Recorder) VLRTSeries(until time.Duration, serverName string) []int {
	if r.SeriesWindow <= 0 || until <= r.WarmUp {
		return nil
	}
	stored := r.vlrtAll
	if serverName != "" {
		stored = r.vlrtByServer[serverName]
	}
	out := make([]int, int((until-r.WarmUp)/r.SeriesWindow)+1)
	copy(out, stored) // clip past-horizon windows, zero-pad short runs
	return out
}

// ClassStats summarizes one interaction class's recorded requests.
type ClassStats struct {
	// Class is the interaction name.
	Class string
	// Count is the number of completed requests.
	Count int
	// Mean is the mean response time.
	Mean time.Duration
	// P99 is the 99th-percentile response time.
	P99 time.Duration
	// VLRT counts >3s requests.
	VLRT int
	// Failed counts requests that never completed.
	Failed int
}

// ByClass breaks the recorded requests down per interaction class, sorted
// by class name. Useful for verifying that the long tail is class-blind —
// the paper's point that VLRT requests are not the "expensive" requests.
func (r *Recorder) ByClass() []ClassStats {
	names := make([]string, 0, len(r.classes))
	for name := range r.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ClassStats, 0, len(names))
	for _, name := range names {
		ca := r.classes[name]
		out = append(out, ClassStats{
			Class:  name,
			Count:  int(ca.hdr.Count()),
			Mean:   ca.hdr.Mean(),
			P99:    ca.hdr.Quantile(0.99),
			VLRT:   ca.vlrt,
			Failed: ca.failed,
		})
	}
	return out
}

// CDFPoint is one point of an empirical distribution function.
type CDFPoint struct {
	// RT is the response-time threshold.
	RT time.Duration
	// Fraction is P(response time <= RT).
	Fraction float64
}

// CDF returns the empirical CDF evaluated at the given thresholds (which
// need not be sorted). Useful for tail comparisons across architectures.
func (r *Recorder) CDF(thresholds []time.Duration) []CDFPoint {
	out := make([]CDFPoint, 0, len(thresholds))
	if r.Len() == 0 {
		for _, t := range thresholds {
			out = append(out, CDFPoint{RT: t})
		}
		return out
	}
	total := float64(r.all.hdr.Count())
	for _, t := range thresholds {
		frac := float64(r.all.hdr.CumulativeCount(t)) / total
		out = append(out, CDFPoint{RT: t, Fraction: frac})
	}
	return out
}

// Histogram builds a response-time frequency histogram with the given bin
// width, covering [0, maxRT); slower requests land in the final overflow
// bin. This regenerates the paper's Fig. 1 semi-log plots. Once the HDR
// histogram has spilled (bounded retention) the bins are reconstructed
// from its buckets, so counts near a bin edge can shift by the
// histogram's RelativeError of the edge.
func (r *Recorder) Histogram(binWidth, maxRT time.Duration) *Histogram {
	h := NewHistogram(binWidth, maxRT)
	if r.all.hdr != nil {
		r.all.hdr.Each(func(v time.Duration, c int64) { h.ObserveN(v, c) })
	}
	return h
}

// MemoryFootprint returns a deterministic accounting (in bytes) of the
// recorder's retained telemetry: the histograms (their exact values and,
// once spilled, their bucket arrays), the per-class accumulators and the
// horizon-bounded VLRT series. Under RetainBounded
// it depends on the class mix and horizon, never on the request count —
// the quantity the flat-memory acceptance test pins.
func (r *Recorder) MemoryFootprint() int64 {
	var total int64
	if r.all.hdr != nil {
		total += r.all.hdr.FootprintBytes()
	}
	for _, ca := range r.classes {
		total += ca.hdr.FootprintBytes() + 32
	}
	total += int64(cap(r.vlrtAll)) * 8
	for _, s := range r.vlrtByServer {
		total += int64(cap(s)) * 8
	}
	return total
}

// Histogram is a fixed-bin latency histogram with an overflow bin.
type Histogram struct {
	binWidth time.Duration
	counts   []int64
	total    int64
}

// NewHistogram creates a histogram of ceil(maxRT/binWidth) bins plus one
// overflow bin.
func NewHistogram(binWidth, maxRT time.Duration) *Histogram {
	if binWidth <= 0 {
		binWidth = 100 * time.Millisecond
	}
	if maxRT < binWidth {
		maxRT = binWidth
	}
	n := int((maxRT + binWidth - 1) / binWidth)
	return &Histogram{binWidth: binWidth, counts: make([]int64, n+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN adds n samples of the same value — the bulk path used when
// reconstructing fixed bins from an HDRHistogram's buckets.
func (h *Histogram) ObserveN(d time.Duration, n int64) {
	if n <= 0 {
		return
	}
	idx := int(d / h.binWidth)
	if d < 0 {
		idx = 0
	}
	if idx >= len(h.counts)-1 {
		idx = len(h.counts) - 1
	}
	h.counts[idx] += n
	h.total += n
}

// Bins returns the number of regular bins (excluding overflow).
func (h *Histogram) Bins() int { return len(h.counts) - 1 }

// BinWidth returns the bin width.
func (h *Histogram) BinWidth() time.Duration { return h.binWidth }

// Count returns the frequency of bin i; i == Bins() is the overflow bin.
func (h *Histogram) Count(i int) int64 {
	if i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i]
}

// Total returns the number of observed samples.
func (h *Histogram) Total() int64 { return h.total }

// BinStart returns the lower edge of bin i.
func (h *Histogram) BinStart(i int) time.Duration {
	return time.Duration(i) * h.binWidth
}

// NonZeroBins returns the indices of bins with at least one sample, in
// order. Useful for printing sparse histograms.
func (h *Histogram) NonZeroBins() []int {
	var out []int
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, i)
		}
	}
	return out
}

// ModeClusters returns the starts (in seconds, rounded down) of the
// response-time clusters: every whole second bucket that holds at least
// minShare of the samples. For the paper's Fig. 1 the expected answer is
// {0, 3, 6, …}.
func (h *Histogram) ModeClusters(minShare float64) []int {
	if h.total == 0 {
		return nil
	}
	perSecond := make(map[int]int64)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		sec := int(h.BinStart(i) / time.Second)
		perSecond[sec] += c
	}
	var out []int
	for sec, c := range perSecond {
		if float64(c)/float64(h.total) >= minShare {
			out = append(out, sec)
		}
	}
	sort.Ints(out)
	return out
}
