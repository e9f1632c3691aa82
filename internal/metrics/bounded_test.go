package metrics

import (
	"math"
	"testing"
	"time"

	"ctqosim/internal/workload"
)

// boundedPair returns an exact and a bounded recorder with the same VLRT
// series window, to record the same request stream into.
func boundedPair(window time.Duration) (exact, bounded *Recorder) {
	exact = NewRecorder()
	exact.SeriesWindow = window
	bounded = NewRecorder()
	bounded.Retention = RetainBounded
	bounded.SeriesWindow = window
	return exact, bounded
}

// TestBoundedRecorderMatchesExactSmallRun pins the small-run contract of
// bounded mode: while the HDR histograms stay under ExactCap, every
// recorder statistic is identical to the exact path.
func TestBoundedRecorderMatchesExactSmallRun(t *testing.T) {
	exact, bounded := boundedPair(50 * time.Millisecond)
	reqs := []*workload.Request{
		req(10*time.Millisecond, 110*time.Millisecond),
		req(20*time.Millisecond, 4*time.Second, "apache"), // VLRT
		req(60*time.Millisecond, 80*time.Millisecond),
		req(120*time.Millisecond, 9*time.Second, "tomcat"), // VLRT
		{Submitted: 130 * time.Millisecond, Completed: 150 * time.Millisecond, Failed: true,
			Class: workload.Class{Name: "Static"}},
		{Submitted: 140 * time.Millisecond, Completed: 400 * time.Millisecond,
			Class: workload.Class{Name: "ViewStory"}},
	}
	for _, rq := range reqs {
		exact.Record(rq)
		bounded.Record(rq)
	}

	if exact.Len() != bounded.Len() {
		t.Fatalf("Len: exact %d, bounded %d", exact.Len(), bounded.Len())
	}
	if exact.Mean() != bounded.Mean() {
		t.Fatalf("Mean: exact %v, bounded %v", exact.Mean(), bounded.Mean())
	}
	if exact.VLRTCount() != bounded.VLRTCount() {
		t.Fatalf("VLRTCount: exact %d, bounded %d", exact.VLRTCount(), bounded.VLRTCount())
	}
	if exact.FailedCount() != bounded.FailedCount() {
		t.Fatalf("FailedCount: exact %d, bounded %d", exact.FailedCount(), bounded.FailedCount())
	}
	if exact.Throughput(time.Second) != bounded.Throughput(time.Second) {
		t.Fatal("Throughput diverges")
	}
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if e, b := exact.Percentile(p), bounded.Percentile(p); e != b {
			t.Fatalf("Percentile(%v): exact %v, bounded %v", p, e, b)
		}
	}

	eSeries := exact.VLRTSeries(time.Second, "")
	bSeries := bounded.VLRTSeries(time.Second, "")
	if len(eSeries) != len(bSeries) {
		t.Fatalf("VLRTSeries length: exact %d, bounded %d", len(eSeries), len(bSeries))
	}
	for i := range eSeries {
		if eSeries[i] != bSeries[i] {
			t.Fatalf("VLRTSeries[%d]: exact %d, bounded %d", i, eSeries[i], bSeries[i])
		}
	}
	eApache := exact.VLRTSeries(time.Second, "apache")
	bApache := bounded.VLRTSeries(time.Second, "apache")
	for i := range eApache {
		if eApache[i] != bApache[i] {
			t.Fatalf("apache VLRTSeries[%d]: exact %d, bounded %d", i, eApache[i], bApache[i])
		}
	}

	eClasses, bClasses := exact.ByClass(), bounded.ByClass()
	if len(eClasses) != len(bClasses) {
		t.Fatalf("ByClass: exact %v, bounded %v", eClasses, bClasses)
	}
	for i := range eClasses {
		if eClasses[i] != bClasses[i] {
			t.Fatalf("ByClass[%d]: exact %+v, bounded %+v", i, eClasses[i], bClasses[i])
		}
	}

	thresholds := []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 5 * time.Second}
	eCDF, bCDF := exact.CDF(thresholds), bounded.CDF(thresholds)
	for i := range eCDF {
		if eCDF[i] != bCDF[i] {
			t.Fatalf("CDF[%d]: exact %+v, bounded %+v", i, eCDF[i], bCDF[i])
		}
	}

	eHist := exact.Histogram(100*time.Millisecond, 10*time.Second)
	bHist := bounded.Histogram(100*time.Millisecond, 10*time.Second)
	for i := 0; i <= eHist.Bins(); i++ {
		if eHist.Count(i) != bHist.Count(i) {
			t.Fatalf("Histogram bin %d: exact %d, bounded %d", i, eHist.Count(i), bHist.Count(i))
		}
	}

	// Bounded mode keeps at most DefaultHDRExactCap response times: all
	// of a small run, none once the run outgrows the cap.
	if got := bounded.ResponseTimes(); len(got) != len(reqs) {
		t.Fatalf("small bounded run kept %d response times, want %d", len(got), len(reqs))
	}
	for bounded.Len() <= DefaultHDRExactCap {
		bounded.Record(req(time.Second, 2*time.Second))
	}
	if got := bounded.ResponseTimes(); got != nil {
		t.Fatalf("bounded run of %d requests kept %d response times, want none past the cap of %d",
			bounded.Len(), len(got), DefaultHDRExactCap)
	}
}

// TestBoundedRecorderLargeRunAccuracy spills past ExactCap and checks the
// degradation contract: counters stay exact, percentiles stay within the
// histogram's relative error.
func TestBoundedRecorderLargeRunAccuracy(t *testing.T) {
	exact, bounded := boundedPair(0)
	for i := 0; i < 20000; i++ {
		rt := time.Duration((i*7919)%10000) * time.Millisecond // 0..10s spread
		rq := req(time.Duration(i)*time.Millisecond, time.Duration(i)*time.Millisecond+rt)
		exact.Record(rq)
		bounded.Record(rq)
	}
	if exact.Len() != bounded.Len() || exact.Mean() != bounded.Mean() ||
		exact.VLRTCount() != bounded.VLRTCount() {
		t.Fatal("exact counters diverge in bounded mode")
	}
	maxErr := NewHDRHistogram(HDRConfig{}).RelativeError()
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		e, b := exact.Percentile(p), bounded.Percentile(p)
		relErr := math.Abs(float64(b-e)) / float64(e)
		if relErr > maxErr {
			t.Fatalf("Percentile(%v): exact %v, bounded %v — error %.5f > %.5f",
				p, e, b, relErr, maxErr)
		}
	}
}

// TestBoundedTelemetryFlatMemory is the acceptance test of the tentpole:
// over the same simulated horizon, a bounded recorder's telemetry bytes
// after 1M requests equal its bytes after 100k — memory is O(1) in the
// request count. Two request structs, one fast and one VLRT with a drop,
// are reused throughout so the test itself stays cheap.
func TestBoundedTelemetryFlatMemory(t *testing.T) {
	const horizon = 60 * time.Second
	footprint := func(n int) int64 {
		r := NewRecorder()
		r.Retention = RetainBounded
		r.SeriesWindow = 50 * time.Millisecond
		fast := &workload.Request{Class: workload.Class{Name: "ViewStory"}}
		vlrt := &workload.Request{Class: workload.Class{Name: "ViewStory"}}
		vlrt.DroppedAt("apache")
		for i := 0; i < n; i++ {
			// Submissions cycle over the full horizon; every 1000th request
			// is a VLRT with a drop so the windowed series see traffic too.
			rq, rt := fast, 100*time.Millisecond
			if i%1000 == 999 {
				rq, rt = vlrt, 5*time.Second
			}
			rq.Submitted = time.Duration(i%1000) * (horizon / 1000)
			rq.Completed = rq.Submitted + rt
			r.Record(rq)
		}
		if r.Len() != n {
			t.Fatalf("Len = %d, want %d", r.Len(), n)
		}
		return r.MemoryFootprint()
	}
	small, big := footprint(100_000), footprint(1_000_000)
	if small != big {
		t.Fatalf("telemetry grew with request count: %d bytes at 100k, %d bytes at 1M",
			small, big)
	}
	if limit := int64(256 * 1024); big > limit {
		t.Fatalf("bounded telemetry footprint %d bytes exceeds %d", big, limit)
	}
	// The exact path, by contrast, must grow: that is what bounded mode buys.
	exact := NewRecorder()
	for i := 0; i < 1000; i++ {
		exact.Record(req(0, time.Millisecond))
	}
	if exact.MemoryFootprint() <= 0 || exact.MemoryFootprint() < 1000*8 {
		t.Fatalf("exact footprint accounting suspicious: %d", exact.MemoryFootprint())
	}
}

// TestSeriesUnboundedUnchanged pins that Append keeps every sample, in
// order, at the base interval.
func TestSeriesUnboundedUnchanged(t *testing.T) {
	s := &Series{Interval: 50 * time.Millisecond}
	for i := 0; i < 100; i++ {
		s.Append(float64(i))
	}
	if len(s.Values) != 100 || s.Interval != 50*time.Millisecond {
		t.Fatalf("series changed: len %d interval %v", len(s.Values), s.Interval)
	}
	for i, v := range s.Values {
		if v != float64(i) {
			t.Fatalf("Values[%d] = %v, want %d", i, v, i)
		}
	}
}

// TestSeriesAtEdgeCases is the table-driven horizon-boundary guard for
// At: queries at zero, mid-window, exactly on a boundary, past the
// horizon and on degenerate series must clamp instead of indexing out of
// range.
func TestSeriesAtEdgeCases(t *testing.T) {
	base := &Series{Interval: 50 * time.Millisecond, Values: []float64{10, 20, 30, 40}}
	tests := []struct {
		name string
		s    *Series
		t    time.Duration
		want float64
	}{
		{"zero time clamps to first", base, 0, 10},
		{"negative time clamps to first", base, -time.Second, 10},
		{"first sample boundary", base, 50 * time.Millisecond, 10},
		{"mid series", base, 100 * time.Millisecond, 20},
		{"sample boundary rounds down", base, 149 * time.Millisecond, 20},
		{"exact horizon", base, 200 * time.Millisecond, 40},
		{"past horizon clamps to last", base, time.Hour, 40},
		{"empty series", &Series{Interval: time.Millisecond}, time.Second, 0},
		{"zero interval", &Series{Values: []float64{5}}, time.Second, 0},
	}
	for _, tt := range tests {
		if got := tt.s.At(tt.t); got != tt.want {
			t.Errorf("%s: At(%v) = %v, want %v", tt.name, tt.t, got, tt.want)
		}
	}
}
