package core

import (
	"fmt"
	"strings"
	"time"

	"ctqosim/internal/burst"
	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/fault"
	"ctqosim/internal/metrics"
	"ctqosim/internal/ntier"
	"ctqosim/internal/span"
	"ctqosim/internal/trace"
	"ctqosim/internal/workload"
)

// sharedNodeName is the consolidated host of Fig. 2.
const sharedNodeName = "consolidated-host"

// Experiment is a configured, runnable reproduction scenario.
type Experiment struct {
	cfg Config
}

// New creates an experiment from cfg (missing fields take paper defaults).
func New(cfg Config) *Experiment {
	return &Experiment{cfg: cfg.withDefaults()}
}

// Config returns the defaulted configuration.
func (e *Experiment) Config() Config { return e.cfg }

// Run executes the experiment to completion and assembles the result.
func (e *Experiment) Run() (*Result, error) {
	cfg := e.cfg
	sim := des.NewSimulator(cfg.Seed)
	cluster := ntier.NewCluster(sim)

	// --- steady system spec -------------------------------------------
	spec := ntier.Spec("steady", cfg.NX)
	if cfg.AppCores > 0 {
		spec.App.Cores = cfg.AppCores
	}
	if cfg.ThreadOverride > 0 {
		for _, t := range []*ntier.TierSpec{&spec.Web, &spec.App, &spec.DB} {
			if t.Arch == ntier.Sync {
				t.Threads = cfg.ThreadOverride
			}
		}
	}
	if cfg.OverheadPerThread > 0 {
		spec.Web.OverheadPerThread = cfg.OverheadPerThread
		spec.App.OverheadPerThread = cfg.OverheadPerThread
		spec.DB.OverheadPerThread = cfg.OverheadPerThread
	}
	if cfg.Kernel != nil {
		for _, t := range []*ntier.TierSpec{&spec.Web, &spec.App, &spec.DB} {
			if t.Arch == ntier.Sync {
				t.Backlog = cfg.Kernel.Backlog
			}
		}
	}

	var consolidation ConsolidationSpec
	if cfg.Consolidation != nil {
		consolidation = cfg.Consolidation.withDefaults()
		switch consolidation.Tier {
		case TierWeb:
			spec.Web.Node = sharedNodeName
		case TierDB:
			spec.DB.Node = sharedNodeName
		case TierApp:
			fallthrough
		default:
			spec.App.Node = sharedNodeName
		}
	}
	if cfg.Tweak != nil {
		cfg.Tweak(&spec)
	}

	steady := cluster.Build(spec)
	if cfg.Kernel != nil {
		cfg.Kernel.Apply(steady.Transport)
	}

	// --- monitoring ----------------------------------------------------
	mon := metrics.NewMonitor(sim, cfg.SampleInterval)
	for _, srv := range steady.Servers() {
		mon.WatchServer(srv)
	}
	for i, vm := range steady.VMs() {
		mon.WatchVM(steady.TierNames()[i], vm)
	}

	steady.Transport.KeepDrops = cfg.Trace

	var tracer *span.Tracer
	if cfg.Spans {
		tracer = span.NewTracer(sim.Now, span.TracerConfig{Seed: cfg.Seed})
	}

	// --- steady workload -----------------------------------------------
	rec := metrics.NewRecorder()
	rec.WarmUp = cfg.WarmUp
	rec.Retention = cfg.Retention
	// VLRTs are bucketed at the monitor interval, which is what
	// Result.VLRTSeries reports.
	rec.SeriesWindow = cfg.SampleInterval
	cl := workload.NewClosedLoop(sim, steady.Frontend(), workload.ClosedLoopConfig{
		Clients:   cfg.Clients,
		ThinkTime: cfg.ThinkTime,
		Mix:       cfg.Mix,
		Burst:     cfg.Burst,
		Sink:      rec,
		Tracer:    tracer,
	})
	cl.Start()

	// --- consolidation co-tenant ----------------------------------------
	var bursty *ntier.System
	if cfg.Consolidation != nil {
		bursty = cluster.Build(ntier.BurstySpec("bursty", "mysql", sharedNodeName))
		// The shared core time-slices among runnable threads, so the
		// co-tenant's batch effectively stops the steady tier (§IV-A).
		bursty.DBVM.Node().SetPolicy(cpu.JobProportional)
		mon.WatchVM(bursty.DB.Name(), bursty.DBVM)

		if consolidation.MMPPIndex > 1 {
			if err := startMMPPBursty(sim, bursty, consolidation); err != nil {
				return nil, fmt.Errorf("%s: %w", cfg.Name, err)
			}
		} else {
			// Each train element is its own periodic batch, offset by the
			// train spacing; all share the burst interval. The first train
			// starts one interval in (or at BatchOffset if given).
			base := consolidation.BatchOffset
			if base <= 0 {
				base = consolidation.BatchInterval
			}
			for k := 0; k < consolidation.TrainLength; k++ {
				batch := workload.NewBatch(sim, bursty.Frontend(), workload.BatchConfig{
					Size:     consolidation.BatchSize,
					Interval: consolidation.BatchInterval,
					Offset:   base + time.Duration(k)*consolidation.TrainSpacing,
					Class:    BurstClass,
				})
				batch.Start()
			}
		}
	}

	// --- I/O millibottleneck ---------------------------------------------
	if cfg.LogFlush != nil {
		lf := cfg.LogFlush.withDefaults()
		flush, err := fault.NewLogFlush(sim, tierVM(steady, lf.Tier), lf.Interval, lf.Duration)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name, err)
		}
		flush.Start()
	}

	// --- GC millibottleneck -----------------------------------------------
	if cfg.GCPause != nil {
		gc := cfg.GCPause.withDefaults()
		pauser, err := fault.NewGCPause(sim, tierVM(steady, gc.Tier), gc.Interval, gc.Base, gc.PerRequest,
			tierServer(steady, gc.Tier).InService)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name, err)
		}
		pauser.Start()
	}

	end := cfg.WarmUp + cfg.Duration
	mon.Reserve(end)
	mon.Start()

	// --- scenario event script --------------------------------------------
	if cfg.Script != nil {
		cfg.Script(&RunHandles{
			Sim:     sim,
			Steady:  steady,
			Bursty:  bursty,
			Clients: cl,
		})
	}

	// --- run -------------------------------------------------------------
	var prof *des.Profile
	if cfg.SimStats {
		prof = sim.StartProfile()
	}
	if err := sim.Run(end); err != nil && err != des.ErrHorizon {
		return nil, fmt.Errorf("simulate %s: %w", cfg.Name, err)
	}

	// --- assemble ----------------------------------------------------------
	res := &Result{
		Config:         cfg,
		System:         steady,
		Bursty:         bursty,
		Recorder:       rec,
		Monitor:        mon,
		End:            end,
		Throughput:     rec.Throughput(end),
		TotalDrops:     steady.TotalDrops(),
		DropsPerServer: make(map[string]int64),
		VLRTCount:      rec.VLRTCount(),
	}
	if prof != nil {
		st := prof.Stats()
		res.SimStats = &st
	}
	for _, name := range steady.Transport.Destinations() {
		if d := steady.Transport.Stats(name).Dropped; d > 0 {
			res.DropsPerServer[name] = d
		}
	}
	if cfg.Trace {
		res.Report = trace.Analyze(mon, steady.TierNames(), steady.Transport.Drops())
	}
	if tracer != nil {
		res.Spans = tracer
		res.SpanBreakdown = tracer.Breakdown()
	}
	return res, nil
}

// startMMPPBursty drives SysBursty with a Markov-modulated Poisson
// process: long cold stretches at a trickle, rare hot epochs whose rate is
// high enough that the co-tenant's CPU backlog saturates the shared core —
// the stochastic original of the deterministic batches.
func startMMPPBursty(sim *des.Simulator, bursty *ntier.System, spec ConsolidationSpec) error {
	meanRate := float64(spec.BatchSize) / spec.BatchInterval.Seconds()
	process, err := burst.Fit(meanRate, spec.MMPPIndex,
		0.01 /* hot fraction */, spec.BatchInterval)
	if err != nil {
		return fmt.Errorf("mmpp bursty: %w", err)
	}
	mix := workload.NewMix().Add(BurstClass, 1)
	gen, err := burst.NewGenerator(sim, bursty.Frontend(), process, mix, nil)
	if err != nil {
		return fmt.Errorf("mmpp bursty: %w", err)
	}
	gen.Start()
	return nil
}

// Summary renders the headline numbers of a result.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s, WL %d]\n", r.Config.Name, r.Config.NX, r.Config.Clients)
	fmt.Fprintf(&b, "  throughput: %.0f req/s over %v\n",
		r.Throughput, r.Config.Duration)
	name, util := r.HighestMeanUtil()
	fmt.Fprintf(&b, "  highest avg CPU util: %.0f%% (%s)\n", util*100, name)
	fmt.Fprintf(&b, "  requests: %d, VLRT (>3s): %d, failed: %d\n",
		r.Recorder.Len(), r.VLRTCount, r.Recorder.FailedCount())
	fmt.Fprintf(&b, "  dropped packets: %d", r.TotalDrops)
	if len(r.DropsPerServer) > 0 {
		parts := make([]string, 0, len(r.DropsPerServer))
		for _, tier := range r.System.TierNames() {
			if d, ok := r.DropsPerServer[tier]; ok {
				parts = append(parts, fmt.Sprintf("%s=%d", tier, d))
			}
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  p50=%v p99=%v p99.9=%v max=%v\n",
		r.Recorder.Percentile(0.50).Round(time.Millisecond),
		r.Recorder.Percentile(0.99).Round(time.Millisecond),
		r.Recorder.Percentile(0.999).Round(time.Millisecond),
		r.Recorder.Percentile(1).Round(time.Millisecond))
	if bd := r.SpanBreakdown; bd != nil && bd.VLRT.Count > 0 {
		fmt.Fprintf(&b, "  VLRT time: %.0f%% waiting (%.0f%% retransmission gaps, "+
			"%.0f%% queue/pool wait), %.0f%% service — %d tail exemplars kept\n",
			100*bd.VLRT.WaitShare(),
			100*bd.VLRT.Share(span.KindRetransmit),
			100*(bd.VLRT.Share(span.KindQueueWait)+bd.VLRT.Share(span.KindPoolWait)),
			100*bd.VLRT.Share(span.KindService),
			len(r.Spans.TailExemplars()))
	}
	return b.String()
}
