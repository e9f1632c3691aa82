package burst

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"ctqosim/internal/des"
	"ctqosim/internal/simnet"
	"ctqosim/internal/workload"
)

// indexOfDispersion returns the index of dispersion for counts of an
// arrival process, estimated from per-window arrival counts:
// I = Var(N) / E(N). A Poisson process has I = 1; bursty traffic has
// I >> 1. It returns 0 for fewer than two windows or a zero mean.
func indexOfDispersion(counts []int) float64 {
	if len(counts) < 2 {
		return 0
	}
	var sum float64
	for _, c := range counts {
		sum += float64(c)
	}
	mean := sum / float64(len(counts))
	if mean == 0 {
		return 0
	}
	var sq float64
	for _, c := range counts {
		d := float64(c) - mean
		sq += d * d
	}
	variance := sq / float64(len(counts)-1)
	return variance / mean
}

// countArrivals buckets arrival timestamps into windows of the given
// width over [0, horizon).
func countArrivals(arrivals []time.Duration, window, horizon time.Duration) []int {
	if window <= 0 || horizon <= 0 {
		return nil
	}
	n := int(horizon / window)
	if n == 0 {
		return nil
	}
	counts := make([]int, n)
	for _, a := range arrivals {
		idx := int(a / window)
		if idx >= 0 && idx < n {
			counts[idx]++
		}
	}
	return counts
}

func TestIndexOfDispersionPoissonLike(t *testing.T) {
	// Counts drawn as a constant sequence have zero variance → I = 0;
	// a Poisson-ish sequence has I ≈ 1.
	constant := make([]int, 100)
	for i := range constant {
		constant[i] = 10
	}
	if got := indexOfDispersion(constant); got != 0 {
		t.Fatalf("constant counts I = %v, want 0", got)
	}

	// Alternating 9/11 around mean 10: variance 1, I = 1/10... a
	// hand-checkable value.
	alt := make([]int, 100)
	for i := range alt {
		alt[i] = 9
		if i%2 == 1 {
			alt[i] = 11
		}
	}
	got := indexOfDispersion(alt)
	want := (100.0 / 99.0) / 10.0 // sample variance ≈ 1.0101, mean 10
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("I = %v, want %v", got, want)
	}
}

func TestIndexOfDispersionEdgeCases(t *testing.T) {
	if indexOfDispersion(nil) != 0 {
		t.Fatal("nil counts should give 0")
	}
	if indexOfDispersion([]int{5}) != 0 {
		t.Fatal("single window should give 0")
	}
	if indexOfDispersion([]int{0, 0, 0}) != 0 {
		t.Fatal("zero-mean counts should give 0")
	}
}

func TestCountArrivals(t *testing.T) {
	arrivals := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, // window 0
		1100 * time.Millisecond,                  // window 1
		5 * time.Second, 5100 * time.Millisecond, // window 5
		11 * time.Second, // beyond horizon, dropped
	}
	counts := countArrivals(arrivals, time.Second, 10*time.Second)
	if len(counts) != 10 {
		t.Fatalf("windows = %d, want 10", len(counts))
	}
	if counts[0] != 2 || counts[1] != 1 || counts[5] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if countArrivals(arrivals, 0, time.Second) != nil {
		t.Fatal("zero window should return nil")
	}
}

func TestFitSatisfiesConstraints(t *testing.T) {
	m, err := Fit(1000, 100, 0.1, 10*time.Second)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if math.Abs(m.MeanRate()-1000) > 1e-6 {
		t.Fatalf("mean rate = %v, want 1000", m.MeanRate())
	}
	if math.Abs(m.IndexAtInfinity()-100) > 1e-6 {
		t.Fatalf("index = %v, want 100", m.IndexAtInfinity())
	}
	if math.Abs(m.StationaryHotFraction()-0.1) > 1e-9 {
		t.Fatalf("hot fraction = %v, want 0.1", m.StationaryHotFraction())
	}
	if m.RateHot <= m.RateCold {
		t.Fatalf("hot rate %v not above cold rate %v", m.RateHot, m.RateCold)
	}
}

func TestFitIndexOneIsPoisson(t *testing.T) {
	m, err := Fit(500, 1, 0.5, time.Second)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if m.RateHot != m.RateCold {
		t.Fatalf("index 1 should degenerate to constant rate: %+v", m)
	}
	if m.IndexAtInfinity() != 1 {
		t.Fatalf("index = %v, want 1", m.IndexAtInfinity())
	}
}

func TestFitRejectsImpossible(t *testing.T) {
	// A huge index at a tiny timescale forces a negative cold rate.
	if _, err := Fit(1000, 10000, 0.5, time.Millisecond); err == nil {
		t.Fatal("impossible fit accepted")
	}
	for _, bad := range []struct {
		rate, index, frac float64
		ts                time.Duration
	}{
		{0, 10, 0.5, time.Second},
		{100, 0.5, 0.5, time.Second},
		{100, 10, 0, time.Second},
		{100, 10, 1, time.Second},
		{100, 10, 0.5, 0},
	} {
		if _, err := Fit(bad.rate, bad.index, bad.frac, bad.ts); err == nil {
			t.Fatalf("bad inputs accepted: %+v", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (MMPP2{RateHot: -1, RateCold: 1, HoldHot: time.Second, HoldCold: time.Second}).Validate(); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := (MMPP2{RateHot: 1, RateCold: 1, HoldHot: 0, HoldCold: time.Second}).Validate(); err == nil {
		t.Fatal("zero holding time accepted")
	}
}

// instantServer admits and replies immediately.
type instantServer struct{ sim *des.Simulator }

func (s *instantServer) Name() string { return "instant" }

func (s *instantServer) TryAccept(call *simnet.Call) bool {
	s.sim.Schedule(0, func() {
		if call.Done != nil {
			call.Done("")
		}
	})
	return true
}

func TestGeneratorMeanRate(t *testing.T) {
	sim := des.NewSimulator(5)
	srv := &instantServer{sim: sim}
	front := workload.Frontend{Transport: simnet.NewTransport(sim), Target: srv}

	m, err := Fit(200, 25, 0.2, 5*time.Second)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	g, err := NewGenerator(sim, front, m, nil, nil)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	g.Start()
	const horizon = 5 * time.Minute
	if err := sim.Run(horizon); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	rate := float64(g.Sent()) / horizon.Seconds()
	if rate < 150 || rate > 250 {
		t.Fatalf("measured rate = %.1f, want ~200", rate)
	}
}

func TestGeneratorRealizesBurstIndex(t *testing.T) {
	measure := func(index float64) float64 {
		sim := des.NewSimulator(9)
		srv := &instantServer{sim: sim}
		front := workload.Frontend{Transport: simnet.NewTransport(sim), Target: srv}
		m, err := Fit(500, index, 0.2, 10*time.Second)
		if err != nil {
			t.Fatalf("Fit: %v", err)
		}
		var arrivals []time.Duration
		sink := workload.SinkFunc(func(r *workload.Request) { arrivals = append(arrivals, r.Submitted) })
		g, err := NewGenerator(sim, front, m, nil, sink)
		if err != nil {
			t.Fatalf("NewGenerator: %v", err)
		}
		g.Start()
		const horizon = 20 * time.Minute
		if err := sim.Run(horizon); err != nil && err != des.ErrHorizon {
			t.Fatalf("Run: %v", err)
		}
		counts := countArrivals(arrivals, 30*time.Second, horizon)
		return indexOfDispersion(counts)
	}

	poisson := measure(1)
	bursty := measure(50)
	// The Poisson case sits near 1 (loose statistical bound); the bursty
	// case must be at least an order of magnitude above it.
	if poisson > 5 {
		t.Fatalf("index-1 process measured I = %.1f, want ~1", poisson)
	}
	if bursty < 10*poisson || bursty < 15 {
		t.Fatalf("index-50 process measured I = %.1f vs poisson %.1f", bursty, poisson)
	}
}

func TestGeneratorStops(t *testing.T) {
	sim := des.NewSimulator(5)
	srv := &instantServer{sim: sim}
	front := workload.Frontend{Transport: simnet.NewTransport(sim), Target: srv}
	m, _ := Fit(1000, 1, 0.5, time.Second)
	g, err := NewGenerator(sim, front, m, nil, nil)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	g.Start()
	sim.Schedule(time.Second, g.Stop)
	if err := sim.Run(10 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	sent := g.Sent()
	if sent < 800 || sent > 1200 {
		t.Fatalf("sent = %d before stop, want ~1000", sent)
	}
}

func TestGeneratorRejectsInvalidProcess(t *testing.T) {
	sim := des.NewSimulator(5)
	front := workload.Frontend{Transport: simnet.NewTransport(sim), Target: &instantServer{sim: sim}}
	if _, err := NewGenerator(sim, front, MMPP2{}, nil, nil); err == nil {
		t.Fatal("invalid process accepted")
	}
}

// Property: any successful fit reproduces its own targets through the
// closed-form accessors, and the asymptotic index is always >= 1.
func TestPropertyFitRoundTrip(t *testing.T) {
	f := func(rate16, idx16 uint16, frac8, ts8 uint8) bool {
		rate := float64(rate16%5000) + 1
		index := float64(idx16%500) + 1
		frac := (float64(frac8%98) + 1) / 100
		ts := time.Duration(int(ts8%60)+1) * time.Second
		m, err := Fit(rate, index, frac, ts)
		if err != nil {
			return true // infeasible combinations are allowed to fail
		}
		if m.IndexAtInfinity() < 1-1e-9 {
			return false
		}
		return math.Abs(m.MeanRate()-rate) < 1e-6*rate &&
			math.Abs(m.IndexAtInfinity()-index) < 1e-6*index
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
