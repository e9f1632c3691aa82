package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ctqosim/internal/des"
	"ctqosim/internal/simnet"
)

// instantServer admits everything and replies immediately.
type instantServer struct {
	sim      *des.Simulator
	accepted int
}

func (s *instantServer) Name() string { return "instant" }

func (s *instantServer) TryAccept(call *simnet.Call) bool {
	s.accepted++
	s.sim.Schedule(0, func() {
		if call.Done != nil {
			call.Done("")
		}
	})
	return true
}

// refusingServer drops everything.
type refusingServer struct{}

func (refusingServer) Name() string                { return "refuser" }
func (refusingServer) TryAccept(*simnet.Call) bool { return false }

func front(sim *des.Simulator, dst simnet.Admission) Frontend {
	return Frontend{Transport: simnet.NewTransport(sim), Target: dst}
}

func TestMixPickDistribution(t *testing.T) {
	mix := NewMix().
		Add(Class{Name: "a"}, 1).
		Add(Class{Name: "b"}, 3)
	rng := rand.New(rand.NewSource(1))

	counts := make(map[string]int)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[mix.Pick(rng).Name]++
	}
	gotB := float64(counts["b"]) / n
	if math.Abs(gotB-0.75) > 0.02 {
		t.Fatalf("P(b) = %.3f, want ~0.75", gotB)
	}
}

func TestMixPickEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewMix().Pick(rng)
	if c.Name != "empty" {
		t.Fatalf("empty mix pick = %q", c.Name)
	}
}

func TestMixZeroWeightIgnored(t *testing.T) {
	mix := NewMix().Add(Class{Name: "a"}, 0).Add(Class{Name: "b"}, 1)
	if len(mix.classes) != 1 {
		t.Fatalf("classes = %v", mix.classes)
	}
}

func TestMeanDemandsCalibration(t *testing.T) {
	// The default mix must keep the app tier the highest-loaded tier, with
	// a mean demand near 0.75ms so WL 7000 (≈990 req/s) runs at ≈75%.
	web, app, db := DefaultMix().MeanDemands()
	if app < 700*time.Microsecond || app > 800*time.Microsecond {
		t.Fatalf("mean app demand = %v, want ~750µs", app)
	}
	if web >= app || db >= app {
		t.Fatalf("app must dominate: web=%v app=%v db=%v", web, app, db)
	}
}

func TestRequestHelpers(t *testing.T) {
	r := &Request{Submitted: time.Second}
	if r.ResponseTime() != 0 || r.VLRT() {
		t.Fatal("in-flight request must have zero RT and not be VLRT")
	}
	r.Completed = 2 * time.Second
	if r.ResponseTime() != time.Second {
		t.Fatalf("RT = %v, want 1s", r.ResponseTime())
	}
	if r.VLRT() {
		t.Fatal("1s request flagged VLRT")
	}
	r.Completed = 5 * time.Second
	if !r.VLRT() {
		t.Fatal("4s request not flagged VLRT")
	}
	if r.DroppedBy() != "" {
		t.Fatalf("DroppedBy = %q, want empty", r.DroppedBy())
	}
	r.DroppedAt("apache")
	r.DroppedAt("tomcat")
	if r.DroppedBy() != "apache" {
		t.Fatalf("DroppedBy = %q, want apache (first drop)", r.DroppedBy())
	}
}

func TestClosedLoopThroughput(t *testing.T) {
	sim := des.NewSimulator(7)
	srv := &instantServer{sim: sim}

	var completed int
	cl := NewClosedLoop(sim, front(sim, srv), ClosedLoopConfig{
		Clients:   700,
		ThinkTime: 7 * time.Second,
		Sink:      SinkFunc(func(*Request) { completed++ }),
	})
	cl.Start()
	if err := sim.Run(60 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	// 700 clients / 7s think ≈ 100 req/s → ~6000 in 60s.
	rate := float64(completed) / 60
	if rate < 85 || rate > 115 {
		t.Fatalf("throughput = %.1f req/s, want ~100", rate)
	}
}

func TestClosedLoopStops(t *testing.T) {
	sim := des.NewSimulator(7)
	srv := &instantServer{sim: sim}
	cl := NewClosedLoop(sim, front(sim, srv), ClosedLoopConfig{
		Clients: 50, ThinkTime: 100 * time.Millisecond,
	})
	cl.Start()
	sim.Schedule(time.Second, cl.Stop)
	if err := sim.Run(10 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	sentAtStop := cl.Sent()
	if sentAtStop == 0 {
		t.Fatal("nothing sent before Stop")
	}
	if cl.Completed() != cl.Sent() {
		t.Fatalf("sent=%d completed=%d after stop+drain", cl.Sent(), cl.Completed())
	}
}

func TestClosedLoopStartIdempotent(t *testing.T) {
	sim := des.NewSimulator(7)
	srv := &instantServer{sim: sim}
	cl := NewClosedLoop(sim, front(sim, srv), ClosedLoopConfig{
		Clients: 10, ThinkTime: time.Second,
	})
	cl.Start()
	cl.Start()
	if err := sim.Run(30 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	// ~10 clients × ~30 cycles; double-start would double it.
	rate := float64(cl.Sent()) / 30
	if rate > 15 {
		t.Fatalf("rate %.1f req/s suggests duplicated clients", rate)
	}
}

func TestClosedLoopGiveUpCountsFailed(t *testing.T) {
	sim := des.NewSimulator(7)
	fr := front(sim, refusingServer{})
	fr.Transport.MaxAttempts = 2
	cl := NewClosedLoop(sim, fr, ClosedLoopConfig{Clients: 5, ThinkTime: time.Second})
	cl.Start()
	if err := sim.Run(30 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if cl.Failed() == 0 {
		t.Fatal("no failures recorded against a refusing server")
	}
	if cl.Failed() != cl.Completed() {
		t.Fatalf("failed=%d completed=%d, want all completions failed", cl.Failed(), cl.Completed())
	}
}

// gateServer refuses every packet before opensAt, noting the request it
// belongs to, and admits every later one, replying at once.
type gateServer struct {
	instantServer
	opensAt time.Duration
	refused map[uint64]bool
}

func (g *gateServer) Name() string { return "gate" }

func (g *gateServer) TryAccept(call *simnet.Call) bool {
	if g.sim.Now() < g.opensAt {
		g.refused[call.Payload.(*Request).ID] = true
		return false
	}
	return g.instantServer.TryAccept(call)
}

// TestRecycledCallStartsClean pins the recycling half of the Sink
// ownership rule: a request rides in a recycled call, so each new request
// must start clean, with no failure or drop attribution left by the
// request the call carried before. The gate refuses every packet for the
// first second and the transport makes one attempt, so the first
// requests fail, dropped at the gate; their calls then carry the
// requests the gate admits.
func TestRecycledCallStartsClean(t *testing.T) {
	sim := des.NewSimulator(7)
	gate := &gateServer{instantServer: instantServer{sim: sim}, opensAt: time.Second, refused: make(map[uint64]bool)}
	fr := front(sim, gate)
	fr.Transport.MaxAttempts = 1
	var last uint64
	var failed, admitted int
	cl := NewClosedLoop(sim, fr, ClosedLoopConfig{
		Clients:   5,
		ThinkTime: 20 * time.Millisecond,
		Sink: SinkFunc(func(r *Request) {
			if failed+admitted > 0 && r.ID <= last {
				t.Fatalf("request %d recorded after request %d: IDs must strictly increase", r.ID, last)
			}
			last = r.ID
			if gate.refused[r.ID] {
				failed++
				if !r.Failed || r.DroppedBy() != "gate" {
					t.Fatalf("refused request %d: Failed = %v, DroppedBy = %q, want true and gate", r.ID, r.Failed, r.DroppedBy())
				}
				return
			}
			admitted++
			if r.Failed || r.DroppedBy() != "" {
				t.Fatalf("admitted request %d: Failed = %v, DroppedBy = %q, want false and none: its recycled call kept the last request's state", r.ID, r.Failed, r.DroppedBy())
			}
		}),
	})
	cl.Start()
	if err := sim.Run(3 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if failed == 0 || admitted == 0 {
		t.Fatalf("%d refused and %d admitted requests recorded, want both", failed, admitted)
	}
}

func TestBurstModulationIncreasesVariance(t *testing.T) {
	arrivalsPerSecond := func(burst *BurstSpec) []int {
		sim := des.NewSimulator(3)
		srv := &instantServer{sim: sim}
		counts := make([]int, 120)
		cl := NewClosedLoop(sim, front(sim, srv), ClosedLoopConfig{
			Clients:   400,
			ThinkTime: 2 * time.Second,
			Burst:     burst,
			Sink: SinkFunc(func(r *Request) {
				s := int(r.Submitted / time.Second)
				if s < len(counts) {
					counts[s]++
				}
			}),
		})
		cl.Start()
		if err := sim.Run(2 * time.Minute); err != nil && err != des.ErrHorizon {
			t.Fatalf("Run: %v", err)
		}
		return counts
	}
	varOf := func(xs []int) float64 {
		var sum, sq float64
		for _, x := range xs {
			sum += float64(x)
		}
		mean := sum / float64(len(xs))
		for _, x := range xs {
			sq += (float64(x) - mean) * (float64(x) - mean)
		}
		return sq / float64(len(xs))
	}
	steady := varOf(arrivalsPerSecond(nil))
	bursty := varOf(arrivalsPerSecond(&BurstSpec{Index: 100}))
	if bursty < 3*steady {
		t.Fatalf("burst variance %.1f not clearly above steady %.1f", bursty, steady)
	}
}

func TestBatchFiresAtIntervals(t *testing.T) {
	sim := des.NewSimulator(7)
	srv := &instantServer{sim: sim}
	b := NewBatch(sim, front(sim, srv), BatchConfig{Size: 400, Interval: 15 * time.Second})
	b.Start()
	if err := sim.Run(46 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	// Batches at 15s, 30s, 45s.
	if b.Sent() != 1200 {
		t.Fatalf("sent = %d, want 1200", b.Sent())
	}
	if srv.accepted != 1200 {
		t.Fatalf("accepted = %d, want 1200", srv.accepted)
	}
}

func TestBatchOffset(t *testing.T) {
	sim := des.NewSimulator(7)
	srv := &instantServer{sim: sim}
	b := NewBatch(sim, front(sim, srv), BatchConfig{
		Size: 10, Interval: 15 * time.Second, Offset: 2 * time.Second,
	})
	b.Start()
	if err := sim.Run(3 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if b.Sent() != 10 {
		t.Fatalf("sent = %d after offset, want 10", b.Sent())
	}
}

func TestBatchStop(t *testing.T) {
	sim := des.NewSimulator(7)
	srv := &instantServer{sim: sim}
	b := NewBatch(sim, front(sim, srv), BatchConfig{Size: 5, Interval: time.Second})
	b.Start()
	sim.Schedule(2500*time.Millisecond, b.Stop)
	if err := sim.Run(10 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if b.Sent() != 10 {
		t.Fatalf("sent = %d, want 10 (two batches before stop)", b.Sent())
	}
}

func TestBatchDefaultsToViewStory(t *testing.T) {
	sim := des.NewSimulator(7)
	srv := &instantServer{sim: sim}
	var class string
	b := NewBatch(sim, front(sim, srv), BatchConfig{
		Size: 1, Interval: time.Second,
		Sink: SinkFunc(func(r *Request) { class = r.Class.Name }),
	})
	b.Start()
	if err := sim.Run(2 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if class != "ViewStory" {
		t.Fatalf("class = %q, want ViewStory", class)
	}
}

// Property: mix picking never returns a class outside the registered set
// and the weighted frequencies sum to 1 over any sample.
func TestPropertyMixPickMembership(t *testing.T) {
	f := func(weights []uint8, seed int64) bool {
		mix := NewMix()
		valid := make(map[string]bool)
		for i, w := range weights {
			if i >= 6 {
				break
			}
			name := string(rune('a' + i))
			mix.Add(Class{Name: name}, float64(w%10)+0.5)
			valid[name] = true
		}
		if len(valid) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if !valid[mix.Pick(rng).Name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmissionMixHeavierOnDB(t *testing.T) {
	_, appR, dbR := DefaultMix().MeanDemands()
	_, appW, dbW := SubmissionMix().MeanDemands()
	if dbW <= dbR {
		t.Fatalf("submission mix db demand %v not above browse-only %v", dbW, dbR)
	}
	// The app tier must remain the bottleneck so the paper's scenarios
	// still apply under the write mix.
	if appW <= dbW {
		t.Fatalf("app (%v) must still dominate db (%v) in the submission mix", appW, dbW)
	}
	if appW < appR {
		t.Fatalf("submission mix app demand %v below browse-only %v", appW, appR)
	}
}

func TestSetMixTakesEffectNextCycle(t *testing.T) {
	sim := des.NewSimulator(1)
	srv := &instantServer{sim: sim}

	counts := make(map[string]int)
	cl := NewClosedLoop(sim, front(sim, srv), ClosedLoopConfig{
		Clients:   20,
		ThinkTime: 10 * time.Millisecond,
		Mix:       NewMix().Add(Class{Name: "before"}, 1),
		Sink: SinkFunc(func(r *Request) {
			counts[r.Class.Name]++
		}),
	})
	cl.Start()
	sim.Schedule(time.Second, func() {
		cl.SetMix(NewMix().Add(Class{Name: "after"}, 1))
	})
	if err := sim.Run(2 * time.Second); err != nil && err != des.ErrHorizon {
		t.Fatalf("Run: %v", err)
	}
	if counts["before"] == 0 || counts["after"] == 0 {
		t.Fatalf("counts = %v, want both classes seen", counts)
	}
	// SetMix(nil) must not clear the mix.
	cl.SetMix(nil)
	if cl.cfg.Mix == nil {
		t.Fatal("SetMix(nil) cleared the mix")
	}
}
