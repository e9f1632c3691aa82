// Package core is the public face of the reproduction: it composes the
// substrate packages into runnable experiments that regenerate every
// figure of the paper, and exposes the Section III arithmetic model that
// predicts when a millibottleneck overflows a server's MaxSysQDepth.
//
// Every configuration of the evaluation is an embedded scenario file,
// compiled into a Config and looked up by name in Scenarios(). A typical
// use:
//
//	cfg, ok := core.Scenarios()["fig3"]
//	if !ok { ... }
//	res, err := core.New(cfg).Run()
//	fmt.Println(res.Summary())
package core

import (
	"time"

	"ctqosim/internal/des"
	"ctqosim/internal/metrics"
	"ctqosim/internal/ntier"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
	"ctqosim/internal/trace"
	"ctqosim/internal/workload"
)

// Tier identifies one of the three tiers of a system.
type Tier int

// Tiers, client side first.
const (
	// TierWeb is the web tier (Apache/Nginx).
	TierWeb Tier = iota + 1
	// TierApp is the application tier (Tomcat/XTomcat).
	TierApp
	// TierDB is the database tier (MySQL/XMySQL).
	TierDB
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierWeb:
		return "web"
	case TierApp:
		return "app"
	case TierDB:
		return "db"
	default:
		return "unknown"
	}
}

// BurstClass is the interaction SysBursty sends in batches: a cheap
// front/app path with a heavy database query, so a batch of 400 deposits
// ≈400ms of CPU on the consolidated node — the paper's illustrative
// 0.4-second millibottleneck.
var BurstClass = workload.Class{
	Name:      "BurstQuery",
	WebCPU:    50 * time.Microsecond,
	AppCPU:    100 * time.Microsecond,
	DBQueries: 1,
	DBCPU:     time.Millisecond,
}

// ConsolidationSpec co-locates SysBursty-MySQL with one tier of the steady
// system on a shared single-core node (the paper's Fig. 2), and drives
// SysBursty with deterministic request batches (Section V-B).
type ConsolidationSpec struct {
	// Tier is the steady tier placed on the shared node.
	Tier Tier
	// BatchSize is requests per burst; zero defaults to 400.
	BatchSize int
	// BatchInterval is the burst period; zero defaults to 15s.
	BatchInterval time.Duration
	// BatchOffset delays the first burst; zero fires after one interval.
	BatchOffset time.Duration
	// TrainLength fires each burst as a train of this many sub-bursts
	// (default 1). High-burst-index traffic clusters its bursts — the
	// "Slashdot effect" — and a train whose spacing matches the 3s
	// retransmission timeout is what re-drops retransmitted packets,
	// producing the 6s and 9s clusters of Fig. 1.
	TrainLength int
	// TrainSpacing separates sub-bursts within a train; zero defaults to
	// the 3s retransmission timeout.
	TrainSpacing time.Duration
	// MMPPIndex, when > 1, replaces the deterministic batches with a
	// Markov-modulated Poisson SysBursty of this index of dispersion —
	// the paper's original burst-index-100 workload (Section IV-A), as
	// opposed to the modified reproducible batches of Section V-B. The
	// mean rate is BatchSize/BatchInterval.
	MMPPIndex float64
}

func (c ConsolidationSpec) withDefaults() ConsolidationSpec {
	out := c
	if out.Tier == 0 {
		out.Tier = TierApp
	}
	if out.BatchSize <= 0 {
		out.BatchSize = 400
	}
	if out.BatchInterval <= 0 {
		out.BatchInterval = 15 * time.Second
	}
	if out.TrainLength <= 0 {
		out.TrainLength = 1
	}
	if out.TrainSpacing <= 0 {
		out.TrainSpacing = 3 * time.Second
	}
	return out
}

// LogFlushSpec injects the collectl log-flush I/O millibottleneck
// (Section IV-B) into one tier.
type LogFlushSpec struct {
	// Tier is the stalled tier; zero defaults to TierDB.
	Tier Tier
	// Interval between flushes; zero defaults to 30s.
	Interval time.Duration
	// Duration of each stall; zero defaults to 1s (the paper's flush
	// peaks).
	Duration time.Duration
}

func (l LogFlushSpec) withDefaults() LogFlushSpec {
	out := l
	if out.Tier == 0 {
		out.Tier = TierDB
	}
	if out.Interval <= 0 {
		out.Interval = 30 * time.Second
	}
	if out.Duration <= 0 {
		out.Duration = time.Second
	}
	return out
}

// GCPauseSpec injects JVM stop-the-world collections into one tier — the
// millibottleneck source of the authors' earlier "Lightning in the cloud"
// study (TRIOS'14, cited as [32]). The pause grows with the number of
// in-service requests, modeling heap pressure from request state.
type GCPauseSpec struct {
	// Tier is the collected tier; zero defaults to TierApp (the JVM).
	Tier Tier
	// Interval between collections; zero defaults to 10s.
	Interval time.Duration
	// Base is the fixed pause component; zero defaults to 50ms.
	Base time.Duration
	// PerRequest extends the pause per in-service request; zero defaults
	// to 2ms.
	PerRequest time.Duration
}

func (g GCPauseSpec) withDefaults() GCPauseSpec {
	out := g
	if out.Tier == 0 {
		out.Tier = TierApp
	}
	if out.Interval <= 0 {
		out.Interval = 10 * time.Second
	}
	if out.Base <= 0 {
		out.Base = 50 * time.Millisecond
	}
	if out.PerRequest <= 0 {
		out.PerRequest = 2 * time.Millisecond
	}
	return out
}

// Config fully describes one experiment.
//
// Configs are safe to submit to a Runner in batches that share pointer
// fields (Mix, Kernel, Consolidation, LogFlush, GCPause): a run only
// reads them — spec structs are copied by withDefaults before any
// adjustment, and Mix/KernelProfile are read-only at run time. The one
// escape hatch is Tweak, which runs on the worker goroutine: it receives
// a per-run *ntier.SystemSpec it may mutate freely, but it must not
// write state captured from outside (and must not read the wall clock or
// global rand — the determinism contract applies inside it, too).
type Config struct {
	// Name labels the experiment in summaries.
	Name string
	// Seed drives all randomness; zero defaults to 1.
	Seed int64

	// NX selects the architecture level (0–3).
	NX ntier.NX
	// Clients is the steady closed-loop population (the paper's "WL n").
	Clients int
	// ThinkTime is the mean client think time; zero defaults to the
	// RUBBoS 7s.
	ThinkTime time.Duration
	// Mix overrides the interaction mix; nil uses workload.DefaultMix.
	//lint:sharedptr
	Mix *workload.Mix
	// Burst modulates the steady population's think times.
	Burst *workload.BurstSpec

	// WarmUp is excluded from statistics; zero defaults to 10s.
	WarmUp time.Duration
	// Duration is the measured interval after warm-up; zero defaults to
	// 60s.
	Duration time.Duration
	// SampleInterval is the monitor period; zero defaults to 50ms.
	SampleInterval time.Duration

	// Consolidation, if non-nil, runs the VM-consolidation experiment.
	//lint:sharedptr
	Consolidation *ConsolidationSpec
	// LogFlush, if non-nil, injects the I/O millibottleneck.
	//lint:sharedptr
	LogFlush *LogFlushSpec
	// GCPause, if non-nil, injects JVM garbage-collection pauses.
	//lint:sharedptr
	GCPause *GCPauseSpec

	// AppCores scales the app tier VM (Fig. 5 uses 4); zero means 1.
	AppCores float64
	// ThreadOverride, if positive, sets every synchronous tier's thread
	// pool (the Fig. 12 "2000-thread" configuration).
	ThreadOverride int
	// OverheadPerThread enables the thread-management overhead model.
	OverheadPerThread float64

	// Kernel, if non-nil, applies a kernel profile: its retransmission
	// behaviour on the transport and its default backlog on every
	// synchronous tier. Nil keeps simnet.RHEL6's retransmission, the
	// paper's testbed; the modern profile is the bufferbloat ablation,
	// and a copy of RHEL6 with another RTO or with backoff is the
	// retransmission-timer ablation.
	//lint:sharedptr
	Kernel *simnet.KernelProfile

	// Trace keeps the steady transport's drop records and runs the CTQO
	// analysis over them.
	Trace bool

	// Retention selects the recorder's memory policy: metrics.RetainAll
	// (default, exact quantiles, two response times kept per request) or
	// metrics.RetainBounded (constant-memory HDR buckets for
	// million-request runs).
	Retention metrics.Retention
	// SimStats enables DES kernel self-profiling: events executed, wall
	// events/sec, peak pending-heap depth and allocation deltas are
	// captured at the run boundaries into Result.SimStats.
	SimStats bool

	// Spans enables per-request span-tree tracing: every tier records
	// queue-wait, service, downstream and retransmission-gap spans, and the
	// result carries the critical-path breakdown plus tail exemplars.
	Spans bool

	// Tweak, if non-nil, may adjust the steady system spec before build —
	// the escape hatch for ablations. It runs on the worker goroutine and
	// may mutate only its per-run argument, never captured state.
	//lint:nocapturewrite
	Tweak func(*ntier.SystemSpec)

	// Script, if non-nil, runs once after the system is built and before
	// the simulation starts: it receives the live run handles and
	// typically schedules a timed chaos script against them (the scenario
	// engine compiles its events section into this hook). Like Tweak it
	// runs on the worker goroutine, may mutate only through its per-run
	// argument, and is bound by the determinism contract.
	//lint:nocapturewrite
	Script func(*RunHandles)
}

// RunHandles exposes the live pieces of one run to a Config.Script:
// enough to schedule timed events (via Sim), target tier VMs and servers
// (via Steady and Bursty), and swap the workload mix (via Clients).
type RunHandles struct {
	// Sim is the run's simulator; scripts schedule events on it.
	Sim *des.Simulator
	// Steady is the built system under test.
	Steady *ntier.System
	// Bursty is the consolidation co-tenant; nil unless configured.
	Bursty *ntier.System
	// Clients is the steady closed-loop workload.
	Clients *workload.ClosedLoop
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ThinkTime <= 0 {
		c.ThinkTime = workload.DefaultThinkTime
	}
	if c.WarmUp <= 0 {
		c.WarmUp = 10 * time.Second
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = metrics.DefaultSampleInterval
	}
	return c
}

// Result carries everything an experiment produced. The raw recorder,
// monitor and systems stay accessible so callers can regenerate any figure.
type Result struct {
	// Config echoes the (defaulted) input.
	Config Config
	// System is the steady system under test.
	System *ntier.System
	// Bursty is the co-tenant system, nil without consolidation.
	Bursty *ntier.System
	// Recorder holds the steady system's completed requests.
	Recorder *metrics.Recorder
	// Monitor holds the 50ms timelines.
	Monitor *metrics.Monitor
	// Report is the CTQO causal analysis, nil unless Config.Trace.
	Report *trace.Report
	// Spans is the per-request span tracer, nil unless Config.Spans.
	Spans *span.Tracer
	// SpanBreakdown is the critical-path decile table, nil unless
	// Config.Spans produced finished traces.
	SpanBreakdown *span.Breakdown

	// End is the total simulated time (warm-up + duration).
	End time.Duration
	// Throughput is completed steady requests per second over the
	// measured window.
	Throughput float64
	// TotalDrops counts dropped packets on all steady hops.
	TotalDrops int64
	// DropsPerServer breaks TotalDrops down by receiving server.
	DropsPerServer map[string]int64
	// VLRTCount is the number of >3s steady requests.
	VLRTCount int
	// SimStats is the kernel self-profile, nil unless Config.SimStats.
	SimStats *des.SimStats
}

// PeakUtil returns a watched VM's maximum windowed utilization (0..1).
func (r *Result) PeakUtil(vm string) float64 { return r.Monitor.Util(vm).Max() }

// MeanUtil returns a watched VM's mean utilization over the measured
// window (post warm-up).
func (r *Result) MeanUtil(vm string) float64 {
	return r.Monitor.Util(vm).MeanOver(r.Config.WarmUp, r.End)
}

// HighestMeanUtil returns the largest per-tier mean utilization of the
// steady system — the "highest average CPU util" in the paper's Fig. 1
// captions.
func (r *Result) HighestMeanUtil() (string, float64) {
	var bestName string
	best := 0.0
	for _, name := range r.System.TierNames() {
		if u := r.MeanUtil(name); u > best {
			best, bestName = u, name
		}
	}
	return bestName, best
}

// Histogram bins the steady response times for Fig. 1: 100ms bins to 10s
// plus overflow.
func (r *Result) Histogram() *metrics.Histogram {
	return r.Recorder.Histogram(100*time.Millisecond, 10*time.Second)
}

// VLRTSeries counts VLRT requests per monitor window, optionally filtered
// by the dropping server (Figs. 3c, 7c, 8c, 9c).
func (r *Result) VLRTSeries(server string) []int {
	return r.Recorder.VLRTSeries(r.End, server)
}

// QueueSeries returns a steady server's queued-requests timeline.
func (r *Result) QueueSeries(server string) *metrics.Series {
	return r.Monitor.Queue(server)
}

// TailExemplars returns up to n of the slowest fully-kept span traces
// (all of them for n <= 0). Nil unless the run had Config.Spans.
func (r *Result) TailExemplars(n int) []*span.Trace {
	ex := r.Spans.TailExemplars()
	if n > 0 && len(ex) > n {
		ex = ex[:n]
	}
	return ex
}
