package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ctqosim/internal/ntier"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
	"ctqosim/internal/trace"
	"ctqosim/internal/workload"
)

// shorten trims a scenario so the test suite stays fast while still
// spanning several millibottleneck periods.
func shorten(cfg Config, d time.Duration) Config {
	cfg.Duration = d
	return cfg
}

// registered returns the registry's scenario of that name, failing the
// test when there is none.
func registered(t testing.TB, name string) Config {
	t.Helper()
	cfg, ok := Scenarios()[name]
	if !ok {
		t.Fatalf("no registered scenario %q", name)
	}
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := New(cfg).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// hasDirection reports whether the CTQO report contains an episode with
// the given direction.
func hasDirection(res *Result, d trace.Direction) bool {
	for _, ep := range res.Report.CTQOEpisodes() {
		if ep.Direction == d || ep.Direction == trace.DirectionBoth {
			return true
		}
	}
	return false
}

func TestConfigDefaults(t *testing.T) {
	cfg := New(Config{}).Config()
	if cfg.Seed != 1 || cfg.WarmUp != 10*time.Second || cfg.Duration != 60*time.Second {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.ThinkTime != 7*time.Second {
		t.Fatalf("think time default = %v", cfg.ThinkTime)
	}
}

func TestTierString(t *testing.T) {
	if TierWeb.String() != "web" || TierApp.String() != "app" ||
		TierDB.String() != "db" || Tier(0).String() != "unknown" {
		t.Fatal("Tier.String wrong")
	}
}

func TestSteadyBaselineNoDrops(t *testing.T) {
	// Without any millibottleneck source, the synchronous system at 75%
	// utilization drops nothing — drops need a trigger, not just load.
	res := mustRun(t, shorten(Config{
		Name: "baseline", NX: ntier.NX0, Clients: 7000,
	}, 30*time.Second))
	if res.TotalDrops != 0 {
		t.Fatalf("baseline dropped %d packets", res.TotalDrops)
	}
	if res.Throughput < 900 || res.Throughput > 1100 {
		t.Fatalf("throughput = %.0f, want ~990", res.Throughput)
	}
}

func TestFigure1MultiModalDistribution(t *testing.T) {
	res := mustRun(t, shorten(registered(t, "fig1-wl7000"), 90*time.Second))

	if res.Throughput < 850 || res.Throughput > 1100 {
		t.Fatalf("throughput = %.0f, want ~990 req/s", res.Throughput)
	}
	_, util := res.HighestMeanUtil()
	if util < 0.65 || util > 0.95 {
		t.Fatalf("highest util = %.2f, want ~0.75-0.85", util)
	}
	clusters := res.Histogram().ModeClusters(0.0005)
	want := map[int]bool{0: false, 3: false, 6: false}
	for _, c := range clusters {
		if _, ok := want[c]; ok {
			want[c] = true
		}
	}
	for sec, seen := range want {
		if !seen {
			t.Fatalf("missing response-time cluster at %ds (got %v)", sec, clusters)
		}
	}
}

func TestFigure1LowUtilizationStillDrops(t *testing.T) {
	// The headline of Section III: VLRT requests appear at moderate
	// utilization, far from saturation.
	res := mustRun(t, shorten(registered(t, "fig1-wl4000"), 90*time.Second))
	if res.VLRTCount == 0 {
		t.Fatal("no VLRT requests at WL 4000; the paper reproduces them at 43% util")
	}
	_, util := res.HighestMeanUtil()
	if util > 0.60 {
		t.Fatalf("highest util = %.2f — too high to demonstrate the moderate-load claim", util)
	}
}

func TestFigure3UpstreamCTQO(t *testing.T) {
	res := mustRun(t, registered(t, "fig3"))

	if res.DropsPerServer["steady-apache"] == 0 {
		t.Fatalf("no drops at Apache; drops = %v", res.DropsPerServer)
	}
	if res.DropsPerServer["steady-mysql"] != 0 {
		t.Fatalf("MySQL dropped packets in the sync system: %v", res.DropsPerServer)
	}
	if !hasDirection(res, trace.DirectionUpstream) {
		t.Fatalf("no upstream CTQO episode:\n%s", res.Report)
	}
	// Fig. 3(b): Apache exceeds the base MaxSysQDepth of 278 and, after
	// the spare process spawns, approaches 428; Tomcat caps at 293; MySQL
	// at the 50-connection pool.
	if peak := res.QueueSeries("steady-apache").Max(); peak <= 278 || peak > 428 {
		t.Fatalf("Apache peak queue = %.0f, want in (278, 428]", peak)
	}
	if peak := res.QueueSeries("steady-tomcat").Max(); peak > 293 {
		t.Fatalf("Tomcat peak queue = %.0f, want <= MaxSysQDepth 293", peak)
	}
	if peak := res.QueueSeries("steady-mysql").Max(); peak > 50 {
		t.Fatalf("MySQL peak queue = %.0f, want <= pool size 50", peak)
	}
	if res.VLRTCount == 0 {
		t.Fatal("no VLRT requests")
	}
}

func TestFigure5IOMillibottleneck(t *testing.T) {
	res := mustRun(t, shorten(registered(t, "fig5"), 70*time.Second))

	if res.DropsPerServer["steady-apache"] == 0 {
		t.Fatalf("no drops at Apache; drops = %v", res.DropsPerServer)
	}
	// The analyzer must see I/O-wait millibottlenecks on MySQL.
	sawIO := false
	for _, ep := range res.Report.CTQOEpisodes() {
		if ep.Bottleneck.IOWait && ep.Bottleneck.VM == "steady-mysql" {
			sawIO = true
		}
	}
	if !sawIO {
		t.Fatalf("no I/O millibottleneck attributed to MySQL:\n%s", res.Report)
	}
	if !hasDirection(res, trace.DirectionUpstream) {
		t.Fatalf("no upstream CTQO:\n%s", res.Report)
	}
}

func TestFigure7DownstreamCTQOAtTomcat(t *testing.T) {
	res := mustRun(t, registered(t, "fig7"))

	if res.DropsPerServer["steady-nginx"] != 0 {
		t.Fatalf("the async web tier dropped packets: %v", res.DropsPerServer)
	}
	if res.DropsPerServer["steady-tomcat"] == 0 {
		t.Fatalf("no drops at Tomcat; drops = %v", res.DropsPerServer)
	}
	if !hasDirection(res, trace.DirectionDownstream) {
		t.Fatalf("no downstream CTQO episode:\n%s", res.Report)
	}
	// MaxSysQDepth(Tomcat) = 293 bounds its queue.
	if peak := res.QueueSeries("steady-tomcat").Max(); peak > 293 {
		t.Fatalf("Tomcat peak queue = %.0f, want <= 293", peak)
	}
}

func TestFigure8DownstreamCTQOAtMySQL(t *testing.T) {
	res := mustRun(t, registered(t, "fig8"))

	if res.DropsPerServer["steady-mysql"] == 0 {
		t.Fatalf("no drops at MySQL; drops = %v", res.DropsPerServer)
	}
	if res.DropsPerServer["steady-nginx"] != 0 || res.DropsPerServer["steady-xtomcat"] != 0 {
		t.Fatalf("async tiers dropped packets: %v", res.DropsPerServer)
	}
	if peak := res.QueueSeries("steady-mysql").Max(); peak > 228 {
		t.Fatalf("MySQL peak queue = %.0f, want <= MaxSysQDepth 228", peak)
	}
}

func TestFigure9BatchReleaseOverflowsMySQL(t *testing.T) {
	res := mustRun(t, registered(t, "fig9"))

	if res.DropsPerServer["steady-mysql"] == 0 {
		t.Fatalf("no drops at MySQL; drops = %v", res.DropsPerServer)
	}
	if res.DropsPerServer["steady-xtomcat"] != 0 {
		t.Fatalf("XTomcat dropped packets: %v", res.DropsPerServer)
	}
	// The lightweight queues upstream hold the backlog without dropping.
	if peak := res.QueueSeries("steady-xtomcat").Max(); peak < 300 {
		t.Fatalf("XTomcat peak queue = %.0f, want a deep backlog", peak)
	}
	if peak := res.QueueSeries("steady-mysql").Max(); peak < 200 || peak > 228 {
		t.Fatalf("MySQL peak queue = %.0f, want ~MaxSysQDepth 228", peak)
	}
}

func TestFigure10NoCTQO(t *testing.T) {
	res := mustRun(t, registered(t, "fig10"))

	if res.TotalDrops != 0 {
		t.Fatalf("NX=3 dropped %d packets under the same millibottleneck", res.TotalDrops)
	}
	if res.VLRTCount != 0 {
		t.Fatalf("NX=3 produced %d VLRT requests", res.VLRTCount)
	}
	if len(res.Report.CTQOEpisodes()) != 0 {
		t.Fatalf("CTQO reported for NX=3:\n%s", res.Report)
	}
	// The backlog is absorbed by XMySQL's lightweight queue.
	if peak := res.QueueSeries("steady-xmysql").Max(); peak < 100 || peak > 2000 {
		t.Fatalf("XMySQL peak queue = %.0f, want substantial but within LiteQDepth", peak)
	}
}

func TestFigure11NoCTQOUnderIOStall(t *testing.T) {
	res := mustRun(t, shorten(registered(t, "fig11"), 70*time.Second))

	if res.TotalDrops != 0 || res.VLRTCount != 0 {
		t.Fatalf("NX=3 under I/O stalls: drops=%d vlrt=%d, want 0/0",
			res.TotalDrops, res.VLRTCount)
	}
	// The stall itself must be visible as I/O wait on XMySQL.
	if res.Monitor.IOWait("steady-xmysql").Max() < 0.9 {
		t.Fatal("log-flush stall not visible in the I/O-wait timeline")
	}
}

func TestNX1MySQLBottleneckUpstreamAtTomcat(t *testing.T) {
	res := mustRun(t, registered(t, "nx1-mysql"))

	if res.DropsPerServer["steady-tomcat"] == 0 {
		t.Fatalf("no drops at Tomcat; drops = %v", res.DropsPerServer)
	}
	if res.DropsPerServer["steady-nginx"] != 0 {
		t.Fatalf("Nginx dropped packets: %v", res.DropsPerServer)
	}
	if !hasDirection(res, trace.DirectionUpstream) {
		t.Fatalf("no upstream CTQO from MySQL to Tomcat:\n%s", res.Report)
	}
}

func TestAsyncHighUtilizationNoDrops(t *testing.T) {
	res := mustRun(t, registered(t, "async-highutil"))

	_, util := res.HighestMeanUtil()
	if util < 0.78 {
		t.Fatalf("highest util = %.2f, want >= ~0.8 (the 83%% claim)", util)
	}
	if res.TotalDrops != 0 || res.VLRTCount != 0 {
		t.Fatalf("drops=%d vlrt=%d at high utilization, want 0/0",
			res.TotalDrops, res.VLRTCount)
	}
}

func TestFigure12Shape(t *testing.T) {
	points, err := NewRunner(0).Figure12([]int{100, 1600})
	if err != nil {
		t.Fatalf("Figure12: %v", err)
	}
	low, high := points[0], points[1]
	// The paper: 1159 → 374 req/s for sync; async wins at high concurrency.
	if high.Sync >= low.Sync/2 {
		t.Fatalf("sync did not collapse: %.0f -> %.0f", low.Sync, high.Sync)
	}
	if high.Async < 2.5*high.Sync {
		t.Fatalf("async (%.0f) does not clearly beat sync (%.0f) at 1600", high.Async, high.Sync)
	}
	if high.Async < 0.85*low.Async {
		t.Fatalf("async throughput not stable: %.0f -> %.0f", low.Async, high.Async)
	}
}

func TestSummaryRendering(t *testing.T) {
	res := mustRun(t, shorten(registered(t, "fig3"), 30*time.Second))
	s := res.Summary()
	for _, want := range []string{"figure-3", "throughput", "VLRT", "dropped packets", "p99"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestVLRTSeriesAlignsWithBursts(t *testing.T) {
	// VLRT requests appear around burst times (15s periods), not uniformly.
	res := mustRun(t, shorten(registered(t, "fig3"), 40*time.Second))
	series := res.VLRTSeries("steady-apache")
	var total, nonZeroWindows int
	for _, c := range series {
		total += c
		if c > 0 {
			nonZeroWindows++
		}
	}
	if total == 0 {
		t.Fatal("empty VLRT series")
	}
	// Drops concentrate in few 50ms windows around the bursts.
	if nonZeroWindows > len(series)/5 {
		t.Fatalf("VLRTs spread over %d/%d windows; expected concentration at bursts",
			nonZeroWindows, len(series))
	}
}

func TestTweakHook(t *testing.T) {
	cfg := shorten(registered(t, "fig3"), 20*time.Second)
	cfg.Trace = false
	cfg.Tweak = func(spec *ntier.SystemSpec) {
		spec.Web.Backlog = 1024 // deep backlog swallows the burst
	}
	res := mustRun(t, cfg)
	if res.System.Web.MaxSysQDepth() != 150+1024 {
		t.Fatalf("tweak not applied: MaxSysQDepth = %d", res.System.Web.MaxSysQDepth())
	}
}

func TestGCMillibottleneckSyncVsAsync(t *testing.T) {
	// GC pauses in the app tier: the synchronous system turns them into
	// drops and VLRT requests; the asynchronous one absorbs them — the
	// paper's claim that the async fix is agnostic to the millibottleneck
	// cause (Section II, third class).
	syncRes := mustRun(t, shorten(registered(t, "gc-sync"), 40*time.Second))
	if syncRes.TotalDrops == 0 || syncRes.VLRTCount == 0 {
		t.Fatalf("sync under GC: drops=%d vlrt=%d, want CTQO",
			syncRes.TotalDrops, syncRes.VLRTCount)
	}
	if !hasDirection(syncRes, trace.DirectionUpstream) {
		t.Fatalf("no upstream CTQO from the GC stall:\n%s", syncRes.Report)
	}

	asyncRes := mustRun(t, shorten(registered(t, "gc-async"), 40*time.Second))
	if asyncRes.TotalDrops != 0 || asyncRes.VLRTCount != 0 {
		t.Fatalf("async under GC: drops=%d vlrt=%d, want 0/0",
			asyncRes.TotalDrops, asyncRes.VLRTCount)
	}
}

func TestKernelProfileChangesBehaviour(t *testing.T) {
	// RHEL6 (the paper): drops with 3s retransmission. Modern Linux:
	// the huge backlog absorbs the burst (bufferbloat trade-off) — no
	// drops but the burst is served late from a deep queue.
	base := shorten(registered(t, "fig3"), 30*time.Second)
	base.Trace = false

	rhel := base
	rhel.Kernel = &simnet.RHEL6
	rhelRes := mustRun(t, rhel)
	if rhelRes.TotalDrops == 0 {
		t.Fatal("RHEL6 profile produced no drops in the Fig. 3 scenario")
	}

	modern := base
	modern.Kernel = &simnet.ModernLinux
	modernRes := mustRun(t, modern)
	if modernRes.TotalDrops != 0 {
		t.Fatalf("modern profile dropped %d packets; the 4096 backlog should absorb the burst",
			modernRes.TotalDrops)
	}
	// Bufferbloat: no retransmission spikes, but the queueing delay tail
	// is fatter than an un-bottlenecked system's.
	if p99 := modernRes.Recorder.Percentile(0.99); p99 < 50*time.Millisecond {
		t.Fatalf("modern p99 = %v; deep buffers should show queueing delay", p99)
	}
	// And the overall worst case is far better than RHEL6's 3s+.
	if modernRes.Recorder.Percentile(1) >= rhelRes.Recorder.Percentile(1) {
		t.Fatal("absorbing the burst should beat dropping it on max RT")
	}
}

// TestCustomKernelProfile builds a profile from RHEL6 with a 1s RTO and
// exponential backoff, and checks that the effective-config echo reports
// it and that the run retransmits on it: the gap after a call's k-th
// drop lasts 1s × 2^(k−1). The burst train is spaced at the new RTO, so
// retransmissions are dropped again, as the 3s train spacing does for
// the paper's kernel.
func TestCustomKernelProfile(t *testing.T) {
	kernel := simnet.RHEL6
	kernel.Name, kernel.RTO, kernel.Backoff = "rhel6-rto1s-backoff", time.Second, true
	cfg := shorten(registered(t, "fig3"), 20*time.Second)
	cfg.Kernel = &kernel
	cfg.Spans = true
	train := *cfg.Consolidation
	train.TrainLength, train.TrainSpacing = 3, time.Second
	cfg.Consolidation = &train

	ec := effectiveConfig(New(cfg).Config())
	if ec.Kernel != kernel.Name || ec.RTOSeconds != 1 || !ec.Backoff || ec.MaxAttempts != 5 {
		t.Fatalf("echo kernel=%q rtoSeconds=%v backoff=%v maxAttempts=%d, want %q 1 true 5",
			ec.Kernel, ec.RTOSeconds, ec.Backoff, ec.MaxAttempts, kernel.Name)
	}

	res := mustRun(t, cfg)
	byDrop := make(map[int]int)
	for _, tr := range res.Spans.TailExemplars() {
		for _, s := range tr.Spans() {
			if s.Kind != span.KindRetransmit {
				continue
			}
			var k int
			if _, err := fmt.Sscanf(s.Detail, "attempt %d", &k); err != nil || k < 1 {
				t.Fatalf("retransmission gap %q does not name its attempt", s.Detail)
			}
			if want := time.Second << (k - 1); s.Duration() != want {
				t.Errorf("gap after drop %d lasted %v, want %v", k, s.Duration(), want)
			}
			byDrop[k]++
		}
	}
	if byDrop[1] == 0 || byDrop[2] == 0 {
		t.Fatalf("retransmission gaps by drop = %v, want first and second drops", byDrop)
	}
}

func TestMMPPBurstyProducesCTQO(t *testing.T) {
	// The stochastic SysBursty (burst index 100, as in the paper's
	// Section IV-A) must also produce drops in the synchronous system,
	// not just the deterministic batches.
	cfg := Config{
		Name:     "mmpp consolidation",
		NX:       ntier.NX0,
		Clients:  7000,
		Duration: 120 * time.Second,
		Consolidation: &ConsolidationSpec{
			Tier:      TierApp,
			MMPPIndex: 100,
			BatchSize: 500, // mean rate 500/15s ≈ 33 req/s
		},
	}
	res := mustRun(t, cfg)
	if res.TotalDrops == 0 || res.VLRTCount == 0 {
		t.Fatalf("MMPP bursty: drops=%d vlrt=%d, want CTQO", res.TotalDrops, res.VLRTCount)
	}
	if res.DropsPerServer["steady-apache"] == 0 {
		t.Fatalf("drops = %v, want them at Apache", res.DropsPerServer)
	}
}

func TestMMPPBurstyInfeasibleIndexFails(t *testing.T) {
	cfg := Config{
		Name:     "mmpp infeasible",
		NX:       ntier.NX0,
		Clients:  100,
		Duration: 5 * time.Second,
		Consolidation: &ConsolidationSpec{
			Tier:      TierApp,
			MMPPIndex: 1e9, // unreachable at the default timescale
		},
	}
	if _, err := New(cfg).Run(); err == nil {
		t.Fatal("infeasible MMPP index accepted")
	}
}

func TestVLRTIsClassBlind(t *testing.T) {
	// Section III: VLRT requests "only take milliseconds when executed by
	// themselves" — the tail is caused by drops at admission, so even the
	// cheapest static requests land in it. Verify the VLRT population
	// spans all interaction classes, including Static.
	res := mustRun(t, shorten(registered(t, "fig1-wl7000"), 60*time.Second))
	classes := res.Recorder.ByClass()
	if len(classes) != 4 {
		t.Fatalf("classes = %d, want the 4 RUBBoS interactions", len(classes))
	}
	for _, cs := range classes {
		if cs.VLRT == 0 {
			t.Errorf("class %s has no VLRT requests; the tail should be class-blind", cs.Class)
		}
		// And each class's median stays in the milliseconds.
		if cs.Mean > time.Second {
			t.Errorf("class %s mean = %v; the body of every class is fast", cs.Class, cs.Mean)
		}
	}
}

func TestSubmissionMixScenario(t *testing.T) {
	// The CTQO phenomena are mix-independent: the read-write submission
	// mix under the same consolidation bursts still drops at Apache in
	// NX=0 and nowhere in NX=3.
	base := shorten(registered(t, "fig3"), 30*time.Second)
	base.Trace = false
	base.Mix = workload.SubmissionMix()

	syncRes := mustRun(t, base)
	if syncRes.DropsPerServer["steady-apache"] == 0 {
		t.Fatalf("write mix: no drops at Apache: %v", syncRes.DropsPerServer)
	}

	asyncCfg := base
	asyncCfg.NX = ntier.NX3
	asyncRes := mustRun(t, asyncCfg)
	if asyncRes.TotalDrops != 0 {
		t.Fatalf("write mix under NX=3 dropped %d", asyncRes.TotalDrops)
	}
}
