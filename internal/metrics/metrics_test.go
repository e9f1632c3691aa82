package metrics

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/workload"
)

func req(submitted, completed time.Duration, drops ...string) *workload.Request {
	r := &workload.Request{Submitted: submitted, Completed: completed}
	for _, s := range drops {
		r.DroppedAt(s)
	}
	return r
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Record(req(0, 100*time.Millisecond))
	r.Record(req(time.Second, time.Second+200*time.Millisecond))
	r.Record(req(2*time.Second, 6*time.Second)) // 4s → VLRT

	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.VLRTCount() != 1 {
		t.Fatalf("VLRTCount = %d, want 1", r.VLRTCount())
	}
	wantMean := (100*time.Millisecond + 200*time.Millisecond + 4*time.Second) / 3
	if r.Mean() != wantMean {
		t.Fatalf("Mean = %v, want %v", r.Mean(), wantMean)
	}
}

func TestRecorderWarmUpCutoff(t *testing.T) {
	r := NewRecorder()
	r.WarmUp = time.Minute
	r.Record(req(30*time.Second, 31*time.Second)) // before warm-up
	r.Record(req(2*time.Minute, 2*time.Minute+time.Second))
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (warm-up excluded)", r.Len())
	}
}

func TestRecorderThroughput(t *testing.T) {
	r := NewRecorder()
	r.WarmUp = 10 * time.Second
	for i := 0; i < 100; i++ {
		at := 10*time.Second + time.Duration(i)*100*time.Millisecond
		r.Record(req(at, at+time.Millisecond))
	}
	// 100 requests over the 10s window [10s, 20s].
	if got := r.Throughput(20 * time.Second); got != 10 {
		t.Fatalf("Throughput = %v, want 10", got)
	}
	if got := r.Throughput(5 * time.Second); got != 0 {
		t.Fatalf("Throughput before warm-up = %v, want 0", got)
	}
}

func TestRecorderPercentile(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 100; i++ {
		r.Record(req(0, time.Duration(i)*time.Millisecond))
	}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
		{0.00, time.Millisecond},
		// Non-round ranks: nearest-rank is ceil(p*n), never round-half-up.
		{0.001, time.Millisecond},
		{0.105, 11 * time.Millisecond},
		{0.211, 22 * time.Millisecond},
		{0.999, 100 * time.Millisecond},
	}
	for _, tt := range tests {
		if got := r.Percentile(tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

// TestRecorderPercentileNearestRank pins the nearest-rank definition on a
// small sample where round-half-up visibly deviates: with n=10 values,
// p=0.21 needs rank ceil(2.1)=3, but int(p*n+0.5) truncates to rank 2.
func TestRecorderPercentileNearestRank(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 10; i++ {
		r.Record(req(0, time.Duration(i)*time.Millisecond))
	}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{0.05, 1 * time.Millisecond},  // ceil(0.5) = 1
		{0.21, 3 * time.Millisecond},  // ceil(2.1) = 3 (round-half-up said 2)
		{0.25, 3 * time.Millisecond},  // ceil(2.5) = 3
		{0.30, 3 * time.Millisecond},  // exact rank 3
		{0.31, 4 * time.Millisecond},  // ceil(3.1) = 4
		{0.99, 10 * time.Millisecond}, // ceil(9.9) = 10
	}
	for _, tt := range tests {
		if got := r.Percentile(tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

// TestNearestRankFloatSlack guards the float-error slack: p*n values that
// are mathematically integral but land a hair above in binary (0.07*100)
// must not be bumped up a rank.
func TestNearestRankFloatSlack(t *testing.T) {
	tests := []struct {
		p    float64
		n    int
		want int
	}{
		{0.07, 100, 6},  // 0.07*100 = 7.000000000000001 in float64
		{0.29, 100, 28}, // 28.999999999999996 must still reach rank 29
		{0.21, 10, 2},
		{0.5, 100, 49},
		{1, 50, 49},
	}
	for _, tt := range tests {
		if got := NearestRank(tt.p, tt.n); got != tt.want {
			t.Errorf("NearestRank(%v, %d) = %d, want %d", tt.p, tt.n, got, tt.want)
		}
	}
}

// TestRecorderPercentileCacheInvalidation interleaves queries and records:
// the cached sort must not serve stale answers after new samples arrive.
func TestRecorderPercentileCacheInvalidation(t *testing.T) {
	r := NewRecorder()
	r.Record(req(0, 10*time.Millisecond))
	if got := r.Percentile(1); got != 10*time.Millisecond {
		t.Fatalf("Percentile(1) = %v, want 10ms", got)
	}
	r.Record(req(0, 30*time.Millisecond))
	r.Record(req(0, 20*time.Millisecond))
	if got := r.Percentile(1); got != 30*time.Millisecond {
		t.Fatalf("Percentile(1) after more records = %v, want 30ms", got)
	}
	if got := r.Percentile(0.34); got != 20*time.Millisecond {
		t.Fatalf("Percentile(0.34) = %v, want 20ms (rank ceil(1.02)=2)", got)
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder()
	if r.Mean() != 0 || r.Percentile(0.99) != 0 || r.VLRTCount() != 0 {
		t.Fatal("empty recorder should return zeros")
	}
}

// TestRecordReleasesRequest pins that the recorder keeps aggregates, not
// requests: in both retention modes a recorded request, with the span
// tree it may carry, is garbage once its producer lets go of it.
func TestRecordReleasesRequest(t *testing.T) {
	for _, ret := range []Retention{RetainAll, RetainBounded} {
		r := NewRecorder()
		r.Retention = ret
		r.SeriesWindow = 50 * time.Millisecond
		released := make(chan struct{})
		recordFinalized(r, released)
		runtime.GC()
		select {
		case <-released:
		case <-time.After(10 * time.Second):
			t.Fatalf("retention %d: the recorder still references a recorded request after GC", ret)
		}
		runtime.KeepAlive(r)
	}
}

// recordFinalized records a dropped VLRT request whose finalizer closes
// released, and returns without holding a reference to it.
//
//go:noinline
func recordFinalized(r *Recorder, released chan struct{}) {
	rq := &workload.Request{
		Class:     workload.Class{Name: "ViewStory"},
		Submitted: time.Second,
		Completed: 5 * time.Second,
	}
	rq.DroppedAt("apache")
	runtime.SetFinalizer(rq, func(*workload.Request) { close(released) })
	r.Record(rq)
}

func TestVLRTSeries(t *testing.T) {
	r := NewRecorder()
	r.SeriesWindow = 50 * time.Millisecond
	// Two VLRTs dropped by apache in window 0, one by tomcat in window 2,
	// plus a fast request that must not count.
	r.Record(req(10*time.Millisecond, 4*time.Second, "apache"))
	r.Record(req(20*time.Millisecond, 7*time.Second, "apache"))
	r.Record(req(110*time.Millisecond, 5*time.Second, "tomcat"))
	r.Record(req(10*time.Millisecond, 20*time.Millisecond))

	all := r.VLRTSeries(time.Second, "")
	if all[0] != 2 || all[2] != 1 {
		t.Fatalf("all series = %v", all)
	}
	apache := r.VLRTSeries(time.Second, "apache")
	if apache[0] != 2 || apache[2] != 0 {
		t.Fatalf("apache series = %v", apache)
	}
}

func TestVLRTSeriesInvalidArgs(t *testing.T) {
	r := NewRecorder()
	if got := r.VLRTSeries(time.Second, ""); got != nil {
		t.Fatalf("zero window = %v, want nil", got)
	}
	r.SeriesWindow = time.Millisecond
	if got := r.VLRTSeries(0, ""); got != nil {
		t.Fatalf("zero horizon = %v, want nil", got)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(100*time.Millisecond, 10*time.Second)
	h.Observe(0)
	h.Observe(99 * time.Millisecond)
	h.Observe(100 * time.Millisecond)
	h.Observe(3 * time.Second)
	h.Observe(time.Minute) // overflow

	if h.Bins() != 100 {
		t.Fatalf("Bins = %d, want 100", h.Bins())
	}
	if h.Count(0) != 2 {
		t.Fatalf("bin 0 = %d, want 2", h.Count(0))
	}
	if h.Count(1) != 1 {
		t.Fatalf("bin 1 = %d, want 1", h.Count(1))
	}
	if h.Count(30) != 1 {
		t.Fatalf("bin 30 = %d, want 1", h.Count(30))
	}
	if h.Count(h.Bins()) != 1 {
		t.Fatalf("overflow = %d, want 1", h.Count(h.Bins()))
	}
	if h.Total() != 5 {
		t.Fatalf("Total = %d, want 5", h.Total())
	}
	if h.Count(-1) != 0 || h.Count(1000) != 0 {
		t.Fatal("out-of-range Count should be 0")
	}
}

func TestHistogramNegativeObservation(t *testing.T) {
	h := NewHistogram(100*time.Millisecond, time.Second)
	h.Observe(-time.Second)
	if h.Count(0) != 1 {
		t.Fatalf("negative sample not clamped to bin 0")
	}
}

func TestHistogramModeClusters(t *testing.T) {
	h := NewHistogram(100*time.Millisecond, 10*time.Second)
	for i := 0; i < 1000; i++ {
		h.Observe(20 * time.Millisecond)
	}
	for i := 0; i < 30; i++ {
		h.Observe(3*time.Second + 50*time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(6*time.Second + 80*time.Millisecond)
	}
	h.Observe(8 * time.Second) // below the share threshold

	got := h.ModeClusters(0.005)
	want := []int{0, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("clusters = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clusters = %v, want %v", got, want)
		}
	}
}

func TestHistogramNonZeroBins(t *testing.T) {
	h := NewHistogram(time.Second, 5*time.Second)
	h.Observe(500 * time.Millisecond)
	h.Observe(3500 * time.Millisecond)
	nz := h.NonZeroBins()
	if len(nz) != 2 || nz[0] != 0 || nz[1] != 3 {
		t.Fatalf("NonZeroBins = %v", nz)
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := &Series{Interval: 50 * time.Millisecond, Values: []float64{1, 2, 3, 4}}
	if s.Max() != 4 {
		t.Fatalf("Max = %v", s.Max())
	}
	if s.Mean() != 2.5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if got := s.At(100 * time.Millisecond); got != 2 {
		t.Fatalf("At(100ms) = %v, want 2", got)
	}
	if got := s.At(0); got != 1 {
		t.Fatalf("At(0) = %v, want first sample", got)
	}
	if got := s.At(time.Hour); got != 4 {
		t.Fatalf("At(1h) = %v, want last sample", got)
	}
	if got := s.MeanOver(0, 100*time.Millisecond); got != 1.5 {
		t.Fatalf("MeanOver = %v, want 1.5", got)
	}
	empty := &Series{}
	if empty.Max() != 0 || empty.Mean() != 0 || empty.At(0) != 0 {
		t.Fatal("empty series should return zeros")
	}
}

type fakeDepth struct {
	name  string
	depth int
}

func (f *fakeDepth) Name() string { return f.name }
func (f *fakeDepth) Depth() int   { return f.depth }

func TestMonitorSamplesQueues(t *testing.T) {
	sim := des.NewSimulator(1)
	mon := NewMonitor(sim, 50*time.Millisecond)
	fd := &fakeDepth{name: "s", depth: 1}
	mon.WatchServer(fd)
	mon.Start()

	sim.Schedule(120*time.Millisecond, func() { fd.depth = 7 })
	if err := sim.Run(300 * time.Millisecond); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	q := mon.Queue("s")
	if len(q.Values) != 6 {
		t.Fatalf("samples = %d, want 6", len(q.Values))
	}
	if q.Values[0] != 1 || q.Values[1] != 1 {
		t.Fatalf("early samples = %v, want depth 1", q.Values[:2])
	}
	if q.Values[3] != 7 {
		t.Fatalf("late sample = %v, want 7", q.Values[3])
	}
}

func TestMonitorSamplesVMUtil(t *testing.T) {
	sim := des.NewSimulator(1)
	node := cpu.NewNode(sim, "n", 1)
	vm := node.AddVM("vm", 1, 1)
	mon := NewMonitor(sim, 50*time.Millisecond)
	mon.WatchVM("vm", vm)
	mon.Start()

	// 100% busy for the first 100ms, idle after.
	vm.Submit(100*time.Millisecond, nil)
	if err := sim.Run(300 * time.Millisecond); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	u := mon.Util("vm")
	if u.Values[0] < 0.99 || u.Values[1] < 0.99 {
		t.Fatalf("busy windows = %v, want ~1.0", u.Values[:2])
	}
	if u.Values[3] > 0.01 {
		t.Fatalf("idle window = %v, want ~0", u.Values[3])
	}
}

func TestMonitorSamplesIOWait(t *testing.T) {
	sim := des.NewSimulator(1)
	node := cpu.NewNode(sim, "n", 1)
	vm := node.AddVM("vm", 1, 1)
	mon := NewMonitor(sim, 50*time.Millisecond)
	mon.WatchVM("vm", vm)
	mon.Start()

	sim.Schedule(50*time.Millisecond, func() { vm.Block(100 * time.Millisecond) })
	if err := sim.Run(300 * time.Millisecond); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	w := mon.IOWait("vm")
	if w.Values[1] < 0.99 || w.Values[2] < 0.99 {
		t.Fatalf("blocked windows = %v, want ~1.0", w.Values[1:3])
	}
	if w.Values[0] > 0.01 {
		t.Fatalf("pre-block window = %v, want 0", w.Values[0])
	}
}

func TestMonitorStop(t *testing.T) {
	sim := des.NewSimulator(1)
	mon := NewMonitor(sim, 50*time.Millisecond)
	mon.WatchServer(&fakeDepth{name: "s"})
	mon.Start()
	sim.Schedule(125*time.Millisecond, mon.Stop)
	if err := sim.Run(time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if got := len(mon.Queue("s").Values); got != 2 {
		t.Fatalf("samples after stop = %d, want 2", got)
	}
}

// TestMonitorReserveSizesSeries pins Reserve: a run to the reserved
// horizon fills every watched series without regrowing it.
func TestMonitorReserveSizesSeries(t *testing.T) {
	sim := des.NewSimulator(1)
	mon := NewMonitor(sim, 50*time.Millisecond)
	mon.WatchServer(&fakeDepth{name: "s"})
	mon.WatchVM("vm", cpu.NewNode(sim, "n", 1).AddVM("vm", 1, 1))
	mon.Reserve(time.Second)
	mon.Start()
	series := map[string]*Series{"queue": mon.Queue("s"), "util": mon.Util("vm"), "iowait": mon.IOWait("vm")}
	caps := make(map[string]int)
	for name, s := range series {
		caps[name] = cap(s.Values)
	}
	if err := sim.Run(time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	for name, s := range series {
		if len(s.Values) != 20 || cap(s.Values) != caps[name] {
			t.Errorf("%s: %d samples in capacity %d, want 20 in the reserved %d", name, len(s.Values), cap(s.Values), caps[name])
		}
	}
}

func TestMonitorDefaultInterval(t *testing.T) {
	sim := des.NewSimulator(1)
	mon := NewMonitor(sim, 0)
	if mon.Interval() != DefaultSampleInterval {
		t.Fatalf("Interval = %v, want %v", mon.Interval(), DefaultSampleInterval)
	}
}

// Property: histogram total equals observations, and the sum over all bins
// equals the total.
func TestPropertyHistogramConservation(t *testing.T) {
	f := func(samplesMs []uint16) bool {
		h := NewHistogram(100*time.Millisecond, 10*time.Second)
		for _, s := range samplesMs {
			h.Observe(time.Duration(s) * time.Millisecond)
		}
		var sum int64
		for i := 0; i <= h.Bins(); i++ {
			sum += h.Count(i)
		}
		return sum == h.Total() && h.Total() == int64(len(samplesMs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p and bracketed by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(samplesMs []uint16) bool {
		if len(samplesMs) == 0 {
			return true
		}
		r := NewRecorder()
		for _, s := range samplesMs {
			r.Record(req(0, time.Duration(s)*time.Millisecond+time.Millisecond))
		}
		prev := time.Duration(-1)
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			v := r.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 10; i++ {
		r.Record(req(0, time.Duration(i)*100*time.Millisecond))
	}
	pts := r.CDF([]time.Duration{
		50 * time.Millisecond,
		500 * time.Millisecond,
		time.Second,
		2 * time.Second,
	})
	if pts[0].Fraction != 0 {
		t.Fatalf("P(<=50ms) = %v, want 0", pts[0].Fraction)
	}
	if pts[1].Fraction != 0.5 {
		t.Fatalf("P(<=500ms) = %v, want 0.5", pts[1].Fraction)
	}
	if pts[2].Fraction != 1 || pts[3].Fraction != 1 {
		t.Fatalf("upper tail wrong: %v", pts[2:])
	}
}

func TestCDFEmpty(t *testing.T) {
	r := NewRecorder()
	pts := r.CDF([]time.Duration{time.Second})
	if len(pts) != 1 || pts[0].Fraction != 0 {
		t.Fatalf("empty CDF = %v", pts)
	}
}

// Property: the CDF is monotone non-decreasing in the threshold and
// bounded in [0,1].
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(samplesMs []uint16) bool {
		r := NewRecorder()
		for _, s := range samplesMs {
			r.Record(req(0, time.Duration(s)*time.Millisecond+time.Millisecond))
		}
		thresholds := []time.Duration{
			0, 10 * time.Millisecond, 100 * time.Millisecond,
			time.Second, 30 * time.Second, 80 * time.Second,
		}
		pts := r.CDF(thresholds)
		prev := -1.0
		for _, p := range pts {
			if p.Fraction < prev || p.Fraction < 0 || p.Fraction > 1 {
				return false
			}
			prev = p.Fraction
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestByClass(t *testing.T) {
	r := NewRecorder()
	add := func(class string, rt time.Duration, failed bool) {
		r.Record(&workload.Request{
			Class:     workload.Class{Name: class},
			Submitted: 0, Completed: rt, Failed: failed,
		})
	}
	add("ViewStory", 10*time.Millisecond, false)
	add("ViewStory", 4*time.Second, false) // VLRT
	add("Static", 2*time.Millisecond, false)
	add("Static", 3*time.Millisecond, true)

	stats := r.ByClass()
	if len(stats) != 2 {
		t.Fatalf("classes = %d, want 2", len(stats))
	}
	// Sorted: Static, ViewStory.
	if stats[0].Class != "Static" || stats[1].Class != "ViewStory" {
		t.Fatalf("order = %v, %v", stats[0].Class, stats[1].Class)
	}
	vs := stats[1]
	if vs.Count != 2 || vs.VLRT != 1 || vs.Failed != 0 {
		t.Fatalf("ViewStory stats = %+v", vs)
	}
	if vs.Mean != (10*time.Millisecond+4*time.Second)/2 {
		t.Fatalf("ViewStory mean = %v", vs.Mean)
	}
	if stats[0].Failed != 1 {
		t.Fatalf("Static failed = %d, want 1", stats[0].Failed)
	}
}

func TestByClassEmpty(t *testing.T) {
	if got := NewRecorder().ByClass(); len(got) != 0 {
		t.Fatalf("ByClass on empty = %v", got)
	}
}
