package ctqosim

// One benchmark per table/figure of the paper's evaluation, plus ablation
// benches for the design choices called out in DESIGN.md. Each benchmark
// runs the figure's scenario (shortened to keep -bench wall time sane),
// reports the headline quantities as custom metrics, and logs the same
// rows the paper reports.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"testing"
	"time"

	"ctqosim/internal/core"
	"ctqosim/internal/ntier"
	"ctqosim/internal/simnet"
)

// benchDuration shortens scenarios for benchmarking while spanning several
// millibottleneck periods.
const benchDuration = 45 * time.Second

func runScenario(b *testing.B, cfg core.Config) *core.Result {
	b.Helper()
	cfg.Duration = benchDuration
	res, err := core.New(cfg).Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// reportCommon publishes the per-run headline metrics.
func reportCommon(b *testing.B, res *core.Result) {
	b.ReportMetric(res.Throughput, "req/s")
	b.ReportMetric(float64(res.VLRTCount), "vlrt/run")
	b.ReportMetric(float64(res.TotalDrops), "drops/run")
}

func benchFigure1(b *testing.B, clients int, paperTput float64, paperUtil int) {
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = runScenario(b, core.Figure1Config(clients))
	}
	reportCommon(b, res)
	name, util := res.HighestMeanUtil()
	b.Logf("paper: %0.f req/s at %d%% CPU; multi-modal peaks near 0/3/6/9s", paperTput, paperUtil)
	b.Logf("measured: %.0f req/s at %.0f%% CPU (%s); clusters at %v s",
		res.Throughput, util*100, name, res.Histogram().ModeClusters(0.0005))
	h := res.Histogram()
	for sec := 0; sec <= 9; sec += 3 {
		var count int64
		for bin := sec * 10; bin < (sec+1)*10 && bin <= h.Bins(); bin++ {
			count += h.Count(bin)
		}
		b.Logf("  frequency near %ds: %d", sec, count)
	}
}

func BenchmarkFigure1_WL4000(b *testing.B) { benchFigure1(b, 4000, 572, 43) }
func BenchmarkFigure1_WL7000(b *testing.B) { benchFigure1(b, 7000, 990, 75) }
func BenchmarkFigure1_WL8000(b *testing.B) { benchFigure1(b, 8000, 1103, 85) }

// benchCTQO runs a CTQO scenario and logs the drop attribution rows of the
// figure's panel (c).
func benchCTQO(b *testing.B, cfg core.Config, paper string) {
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = runScenario(b, cfg)
	}
	reportCommon(b, res)
	b.Logf("paper: %s", paper)
	for _, tier := range res.System.TierNames() {
		b.Logf("measured: %-16s drops=%-6d peakQueue=%.0f",
			tier, res.DropsPerServer[tier], res.QueueSeries(tier).Max())
	}
	if res.Report != nil {
		for _, ep := range res.Report.CTQOEpisodes() {
			b.Logf("  %v in %s (%v): drops %v", ep.Direction, ep.Bottleneck.VM,
				ep.Bottleneck.Duration().Round(50*time.Millisecond), ep.Drops)
		}
	}
}

func BenchmarkFigure3_UpstreamCTQO(b *testing.B) {
	benchCTQO(b, core.Figure3Config(),
		"Tomcat millibottlenecks; Apache queue exceeds 278 (428 after spare); drops+VLRT at Apache")
}

func BenchmarkFigure5_LogFlush(b *testing.B) {
	benchCTQO(b, core.Figure5Config(),
		"MySQL I/O stalls every 30s; chain MySQL->Tomcat->Apache; drops at Apache")
}

func BenchmarkFigure7_NX1(b *testing.B) {
	benchCTQO(b, core.Figure7Config(),
		"no drops at Nginx; downstream CTQO drops at Tomcat (MaxSysQDepth 293)")
}

func BenchmarkFigure8_NX2MySQLBottleneck(b *testing.B) {
	benchCTQO(b, core.Figure8Config(),
		"MySQL millibottleneck; downstream CTQO drops at MySQL (MaxSysQDepth 228)")
}

func BenchmarkFigure9_NX2BatchRelease(b *testing.B) {
	benchCTQO(b, core.Figure9Config(),
		"XTomcat millibottleneck; batch release overflows MySQL (228)")
}

func BenchmarkFigure10_NX3CPUBottleneck(b *testing.B) {
	benchCTQO(b, core.Figure10Config(),
		"same millibottleneck, all tiers async: no CTQO, no drops")
}

func BenchmarkFigure11_NX3IOBottleneck(b *testing.B) {
	benchCTQO(b, core.Figure11Config(),
		"XMySQL I/O stalls, all tiers async: no CTQO, no drops")
}

func BenchmarkNX1MySQLBottleneck(b *testing.B) {
	benchCTQO(b, core.NX1MySQLBottleneckConfig(),
		"(graphs omitted in the paper) MySQL millibottleneck under NX=1: upstream CTQO at Tomcat")
}

func BenchmarkAbstractClaim_AsyncAt83Percent(b *testing.B) {
	benchCTQO(b, core.AsyncHighUtilConfig(),
		"all-async system: no CTQO or drops at utilization as high as 83%")
}

func BenchmarkFigure12_ThroughputVsConcurrency(b *testing.B) {
	var rows []core.ThroughputPoint
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = core.NewRunner(0).Figure12(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("paper: sync(2000 threads) 1159->374 req/s over concurrency 100->1600; async flat and higher")
	for _, p := range rows {
		b.Logf("measured: concurrency %-5d sync %-6.0f async %.0f", p.Concurrency, p.Sync, p.Async)
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.Sync, "sync-req/s@1600")
	b.ReportMetric(last.Async, "async-req/s@1600")
}

// --- Ablations: the design choices DESIGN.md calls out -------------------
//
// Each ablation variant sweeps its scenario over benchReplications seeds
// per benchmark iteration, one seed per shard on the Runner worker pool,
// so the reported metrics are cross-seed means with a 95% CI half-width —
// at parallel wall-clock cost rather than serial N× (on a multi-core
// machine the CI is nearly free). A single representative run happens outside the timed
// region to feed the qualitative log lines.

// benchReplications is the per-variant seed count: small enough to keep
// -bench wall time sane, enough for a Student's-t interval.
const benchReplications = 3

// runAblation runs one representative seed outside the timed region (for
// qualitative logs), then sweeps the scenario across the Runner pool
// inside the timed loop and reports mean ± CI metrics.
func runAblation(b *testing.B, cfg core.Config) *core.Result {
	b.Helper()
	cfg.Duration = benchDuration
	res, err := core.New(cfg).Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var stats *core.SweepStats
	for i := 0; i < b.N; i++ {
		stats, err = core.NewRunner(0).Sweep(core.SweepConfig{Config: cfg, Seeds: benchReplications})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(stats.Throughput.Mean, "req/s")
	b.ReportMetric(stats.Throughput.CI95, "req/s±")
	b.ReportMetric(stats.VLRT.Mean, "vlrt/run")
	b.ReportMetric(stats.VLRT.CI95, "vlrt±")
	b.ReportMetric(stats.Drops.Mean, "drops/run")
	b.ReportMetric(stats.Drops.CI95, "drops±")
	b.Logf("swept ×%d (seeds %d..%d): p99 %v ms", stats.Completed,
		stats.SeedStart, stats.SeedStart+int64(stats.Requested)-1, stats.P99Millis.MeanCI())
	return res
}

// BenchmarkAblationRetransmitTimer shows the retransmission timer places
// the histogram clusters: a 1s RTO moves them to 1/2/3s; the exponential
// variant spreads them to 3/9/21s.
func BenchmarkAblationRetransmitTimer(b *testing.B) {
	variants := []struct {
		name    string
		rto     time.Duration
		backoff bool
	}{
		{name: "RTO=3s (paper kernel)"},
		{name: "RTO=1s", rto: time.Second},
		{name: "RTO=3s exponential", backoff: true},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := core.Figure1Config(7000)
			cfg.Trace = false
			cfg.RTO = v.rto
			cfg.Backoff = v.backoff
			res := runAblation(b, cfg)
			b.Logf("clusters at %v s", res.Histogram().ModeClusters(0.0005))
		})
	}
}

// BenchmarkAblationBacklog moves the overflow threshold with the TCP
// accept-queue size, per the MaxSysQDepth arithmetic.
func BenchmarkAblationBacklog(b *testing.B) {
	for _, backlog := range []int{64, 128, 512} {
		backlog := backlog
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			cfg := core.Figure3Config()
			cfg.Trace = false
			cfg.Tweak = func(spec *ntier.SystemSpec) {
				spec.Web.Backlog = backlog
			}
			res := runAblation(b, cfg)
			b.Logf("MaxSysQDepth(web)=%d drops=%d", 150+backlog, res.TotalDrops)
		})
	}
}

// BenchmarkAblationThreadPool is the "RPC purist" fix of Section V-E:
// larger pools postpone the CTQO drops but, with the thread-overhead model
// enabled, pay for it in throughput.
func BenchmarkAblationThreadPool(b *testing.B) {
	for _, threads := range []int{150, 600, 2000} {
		threads := threads
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			cfg := core.Figure3Config()
			cfg.Trace = false
			cfg.ThreadOverride = threads
			cfg.OverheadPerThread = core.Figure12Overhead
			res := runAblation(b, cfg)
			b.Logf("threads=%d drops=%d throughput=%.0f", threads, res.TotalDrops, res.Throughput)
		})
	}
}

// BenchmarkAblationBurstLength sweeps the millibottleneck length across
// the overflow boundary the Section III model predicts.
func BenchmarkAblationBurstLength(b *testing.B) {
	for _, size := range []int{150, 300, 450, 600} {
		size := size
		b.Run(fmt.Sprintf("burstCPU=%dms", size), func(b *testing.B) {
			cfg := core.Figure3Config()
			cfg.Trace = false
			cfg.Consolidation = &core.ConsolidationSpec{
				Tier:      core.TierApp,
				BatchSize: size, // 1ms of DB demand each → ~size ms of freeze
			}
			res := runAblation(b, cfg)
			p := core.PredictOverflow(res.Throughput,
				time.Duration(size)*time.Millisecond, 278)
			b.Logf("model predicts %d drops/burst; measured %d drops over %d bursts",
				p.Dropped, res.TotalDrops, int(benchDuration/(15*time.Second))+1)
		})
	}
}

// BenchmarkAblationConnPool moves where queuing accumulates between the
// app and database tiers.
func BenchmarkAblationConnPool(b *testing.B) {
	for _, pool := range []int{25, 50, 200} {
		pool := pool
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			cfg := core.Figure3Config()
			cfg.Trace = false
			cfg.Tweak = func(spec *ntier.SystemSpec) {
				spec.DBConnPool = pool
			}
			res := runAblation(b, cfg)
			b.Logf("pool=%d peak MySQL queue=%.0f peak Tomcat queue=%.0f",
				pool, res.QueueSeries("steady-mysql").Max(),
				res.QueueSeries("steady-tomcat").Max())
		})
	}
}

// BenchmarkKernelEventThroughput measures the raw simulation engine: how
// fast the full NX=0 system simulates relative to real time.
func BenchmarkKernelEventThroughput(b *testing.B) {
	var res *core.Result
	start := time.Now()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{Name: "kernel-bench", NX: ntier.NX0, Clients: 7000}
		res = runScenario(b, cfg)
	}
	wall := time.Since(start).Seconds() / float64(b.N)
	simSeconds := res.End.Seconds()
	b.ReportMetric(simSeconds/wall, "sim-s/wall-s")
	b.ReportMetric(res.Throughput, "req/s")
}

// BenchmarkAblationKernelProfile contrasts the paper's RHEL6 kernel with a
// modern one: the larger backlog absorbs the burst instead of dropping it
// (no 3s cluster), at the price of deep-queue delay — the bufferbloat
// trade-off Section V-E cites for why the TCP buffer is considered fixed.
func BenchmarkAblationKernelProfile(b *testing.B) {
	profiles := []simnet.KernelProfile{simnet.RHEL6, simnet.ModernLinux}
	for i := range profiles {
		p := profiles[i]
		b.Run(p.Name, func(b *testing.B) {
			cfg := core.Figure3Config()
			cfg.Trace = false
			cfg.Kernel = &p
			res := runAblation(b, cfg)
			b.Logf("%s: drops=%d p99=%v p100=%v clusters=%v",
				p.Name, res.TotalDrops,
				res.Recorder.Percentile(0.99).Round(time.Millisecond),
				res.Recorder.Percentile(1).Round(time.Millisecond),
				res.Histogram().ModeClusters(0.0005))
		})
	}
}

// BenchmarkAblationGCPause contrasts the GC millibottleneck source under
// the synchronous and asynchronous architectures.
func BenchmarkAblationGCPause(b *testing.B) {
	for _, level := range []ntier.NX{ntier.NX0, ntier.NX3} {
		level := level
		b.Run(level.String(), func(b *testing.B) {
			cfg := core.GCMillibottleneckConfig(level)
			cfg.Trace = false
			runAblation(b, cfg)
		})
	}
}

// BenchmarkAblationLoadShedding contrasts fail-fast queue shedding with
// the default drop-and-retransmit behaviour: shedding converts 3-second
// retransmission outliers into immediate failures — availability traded
// for latency.
func BenchmarkAblationLoadShedding(b *testing.B) {
	variants := []struct {
		name    string
		timeout time.Duration
	}{
		{name: "retransmit (paper)"},
		{name: "shed after 250ms", timeout: 250 * time.Millisecond},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := core.Figure3Config()
			cfg.Trace = false
			if v.timeout > 0 {
				cfg.Tweak = func(spec *ntier.SystemSpec) {
					spec.Web.QueueTimeout = v.timeout
				}
			}
			res := runAblation(b, cfg)
			b.ReportMetric(float64(res.Recorder.FailedCount()), "failed/run")
			b.Logf("%s: vlrt=%d failed=%d p99.9=%v", v.name,
				res.VLRTCount, res.Recorder.FailedCount(),
				res.Recorder.Percentile(0.999).Round(time.Millisecond))
		})
	}
}
