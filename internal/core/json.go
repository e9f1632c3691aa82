package core

import (
	"encoding/json"
	"time"

	"ctqosim/internal/metrics"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
)

// SummaryJSON is the machine-readable form of a Result, stable for
// downstream tooling.
type SummaryJSON struct {
	Name             string             `json:"name"`
	Architecture     string             `json:"architecture"`
	Clients          int                `json:"clients"`
	Seed             int64              `json:"seed"`
	WarmUpSeconds    float64            `json:"warmUpSeconds"`
	DurationSeconds  float64            `json:"durationSeconds"`
	ThroughputReqS   float64            `json:"throughputReqS"`
	Requests         int                `json:"requests"`
	VLRT             int                `json:"vlrt"`
	Failed           int                `json:"failed"`
	TotalDrops       int64              `json:"totalDrops"`
	DropsPerServer   map[string]int64   `json:"dropsPerServer,omitempty"`
	MeanMillis       float64            `json:"meanMillis"`
	P50Millis        float64            `json:"p50Millis"`
	P99Millis        float64            `json:"p99Millis"`
	P999Millis       float64            `json:"p999Millis"`
	MaxMillis        float64            `json:"maxMillis"`
	MeanUtilByTier   map[string]float64 `json:"meanUtilByTier"`
	PeakQueueByTier  map[string]float64 `json:"peakQueueByTier"`
	ClustersSeconds  []int              `json:"clustersSeconds,omitempty"`
	CTQOEpisodes     int                `json:"ctqoEpisodes"`
	CTQODirections   map[string]int     `json:"ctqoDirections,omitempty"`
	HistogramBinMS   int64              `json:"histogramBinMs"`
	HistogramCounts  []int64            `json:"histogramCounts"`
	HistogramOverMax int64              `json:"histogramOverflow"`

	// EffectiveConfig echoes every knob after defaulting and kernel-profile
	// resolution, so the run is reproducible from this JSON alone.
	EffectiveConfig EffectiveConfigJSON `json:"effectiveConfig"`
	// SpanBreakdown is the critical-path decile table; present only when
	// the run recorded span traces.
	SpanBreakdown *SpanBreakdownJSON `json:"spanBreakdown,omitempty"`
	// SimStats is the kernel self-profile; present only when the run had
	// Config.SimStats (its wall-clock fields vary run to run, so it must
	// stay out of byte-compared default output).
	SimStats *SimStatsJSON `json:"simStats,omitempty"`
}

// SimStatsJSON is the machine-readable kernel self-profile.
type SimStatsJSON struct {
	EventsExecuted  uint64  `json:"eventsExecuted"`
	EventsScheduled uint64  `json:"eventsScheduled"`
	PeakPending     int     `json:"peakPending"`
	WallSeconds     float64 `json:"wallSeconds"`
	EventsPerSecond float64 `json:"eventsPerSecond"`
	AllocMB         float64 `json:"allocMB"`
	GCCycles        uint32  `json:"gcCycles"`
}

// EffectiveConfigJSON is the resolved configuration of a run: defaults
// applied, kernel profile folded into the transport knobs.
type EffectiveConfigJSON struct {
	Name                 string  `json:"name"`
	Seed                 int64   `json:"seed"`
	Architecture         string  `json:"architecture"`
	Clients              int     `json:"clients"`
	ThinkTimeSeconds     float64 `json:"thinkTimeSeconds"`
	BurstIndex           float64 `json:"burstIndex,omitempty"`
	WarmUpSeconds        float64 `json:"warmUpSeconds"`
	DurationSeconds      float64 `json:"durationSeconds"`
	SampleIntervalMillis float64 `json:"sampleIntervalMillis"`

	Kernel      string  `json:"kernel,omitempty"`
	RTOSeconds  float64 `json:"rtoSeconds"`
	MaxAttempts int     `json:"maxAttempts"`
	Backoff     bool    `json:"backoff,omitempty"`

	AppCores          float64 `json:"appCores,omitempty"`
	ThreadOverride    int     `json:"threadOverride,omitempty"`
	OverheadPerThread float64 `json:"overheadPerThread,omitempty"`

	Trace bool `json:"trace"`
	Spans bool `json:"spans"`

	Retention   string `json:"retention,omitempty"`
	HDRSigBits  int    `json:"hdrSigBits,omitempty"`
	HDRExactCap int    `json:"hdrExactCap,omitempty"`
	SimStats    bool   `json:"simStats,omitempty"`

	Consolidation *ConsolidationJSON `json:"consolidation,omitempty"`
	LogFlush      *LogFlushJSON      `json:"logFlush,omitempty"`
	GCPause       *GCPauseJSON       `json:"gcPause,omitempty"`
}

// ConsolidationJSON echoes a resolved ConsolidationSpec.
type ConsolidationJSON struct {
	Tier                 string  `json:"tier"`
	BatchSize            int     `json:"batchSize"`
	BatchIntervalSeconds float64 `json:"batchIntervalSeconds"`
	BatchOffsetSeconds   float64 `json:"batchOffsetSeconds,omitempty"`
	BatchClass           string  `json:"batchClass"`
	TrainLength          int     `json:"trainLength"`
	TrainSpacingSeconds  float64 `json:"trainSpacingSeconds"`
	MMPPIndex            float64 `json:"mmppIndex,omitempty"`
}

// LogFlushJSON echoes a resolved LogFlushSpec.
type LogFlushJSON struct {
	Tier            string  `json:"tier"`
	IntervalSeconds float64 `json:"intervalSeconds"`
	DurationSeconds float64 `json:"durationSeconds"`
}

// GCPauseJSON echoes a resolved GCPauseSpec.
type GCPauseJSON struct {
	Tier             string  `json:"tier"`
	IntervalSeconds  float64 `json:"intervalSeconds"`
	BaseMillis       float64 `json:"baseMillis"`
	PerRequestMillis float64 `json:"perRequestMillis"`
}

// SpanBreakdownJSON is the machine-readable critical-path table.
type SpanBreakdownJSON struct {
	Requests      int           `json:"requests"`
	Rows          []SpanRowJSON `json:"rows"`
	TailExemplars int           `json:"tailExemplars"`
	// VLRTWaitShare is the fraction of VLRT response time spent waiting
	// (retransmission gaps + queue waits + pool waits) rather than in
	// service — the paper's headline attribution.
	VLRTWaitShare float64 `json:"vlrtWaitShare"`
}

// SpanRowJSON is one group of the breakdown table.
type SpanRowJSON struct {
	Label        string  `json:"label"`
	Count        int     `json:"count"`
	MeanMillis   float64 `json:"meanMillis"`
	MaxMillis    float64 `json:"maxMillis"`
	QueueShare   float64 `json:"queueShare"`
	ServiceShare float64 `json:"serviceShare"`
	RetransShare float64 `json:"retransShare"`
	PoolShare    float64 `json:"poolShare"`
}

// Summarize builds the machine-readable summary of a result.
func Summarize(res *Result) SummaryJSON {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	out := SummaryJSON{
		Name:            res.Config.Name,
		Architecture:    res.Config.NX.String(),
		Clients:         res.Config.Clients,
		Seed:            res.Config.Seed,
		WarmUpSeconds:   res.Config.WarmUp.Seconds(),
		DurationSeconds: res.Config.Duration.Seconds(),
		ThroughputReqS:  res.Throughput,
		Requests:        res.Recorder.Len(),
		VLRT:            res.VLRTCount,
		Failed:          res.Recorder.FailedCount(),
		TotalDrops:      res.TotalDrops,
		DropsPerServer:  res.DropsPerServer,
		MeanMillis:      ms(res.Recorder.Mean()),
		P50Millis:       ms(res.Recorder.Percentile(0.50)),
		P99Millis:       ms(res.Recorder.Percentile(0.99)),
		P999Millis:      ms(res.Recorder.Percentile(0.999)),
		MaxMillis:       ms(res.Recorder.Percentile(1)),
		MeanUtilByTier:  make(map[string]float64, 3),
		PeakQueueByTier: make(map[string]float64, 3),
		ClustersSeconds: res.Histogram().ModeClusters(0.0005),
	}
	for _, tier := range res.System.TierNames() {
		out.MeanUtilByTier[tier] = res.MeanUtil(tier)
		out.PeakQueueByTier[tier] = res.QueueSeries(tier).Max()
	}
	if res.Report != nil {
		out.CTQODirections = make(map[string]int)
		for _, ep := range res.Report.CTQOEpisodes() {
			out.CTQOEpisodes++
			out.CTQODirections[ep.Direction.String()]++
		}
	}
	h := res.Histogram()
	out.HistogramBinMS = h.BinWidth().Milliseconds()
	out.HistogramCounts = make([]int64, h.Bins())
	for i := 0; i < h.Bins(); i++ {
		out.HistogramCounts[i] = h.Count(i)
	}
	out.HistogramOverMax = h.Count(h.Bins())
	out.EffectiveConfig = effectiveConfig(res.Config)
	out.SpanBreakdown = spanBreakdownJSON(res)
	if st := res.SimStats; st != nil {
		out.SimStats = &SimStatsJSON{
			EventsExecuted:  st.EventsExecuted,
			EventsScheduled: st.EventsScheduled,
			PeakPending:     st.PeakPending,
			WallSeconds:     st.WallSeconds,
			EventsPerSecond: st.EventsPerSecond,
			AllocMB:         float64(st.AllocBytes) / (1 << 20),
			GCCycles:        st.GCCycles,
		}
	}
	return out
}

// effectiveConfig resolves cfg into the exact knobs the run used.
func effectiveConfig(cfg Config) EffectiveConfigJSON {
	out := EffectiveConfigJSON{
		Name:                 cfg.Name,
		Seed:                 cfg.Seed,
		Architecture:         cfg.NX.String(),
		Clients:              cfg.Clients,
		ThinkTimeSeconds:     cfg.ThinkTime.Seconds(),
		WarmUpSeconds:        cfg.WarmUp.Seconds(),
		DurationSeconds:      cfg.Duration.Seconds(),
		SampleIntervalMillis: float64(cfg.SampleInterval) / float64(time.Millisecond),
		AppCores:             cfg.AppCores,
		ThreadOverride:       cfg.ThreadOverride,
		OverheadPerThread:    cfg.OverheadPerThread,
		Trace:                cfg.Trace,
		Spans:                cfg.Spans,
		SimStats:             cfg.SimStats,
	}
	if cfg.Retention == metrics.RetainBounded {
		out.Retention = "bounded"
		out.HDRSigBits = metrics.DefaultHDRSigBits
		out.HDRExactCap = metrics.DefaultHDRExactCap
	}
	if cfg.Burst != nil {
		out.BurstIndex = cfg.Burst.Index
	}
	// The transport runs the profile, or RHEL6 when there is none; only a
	// profile given explicitly is named.
	kernel := simnet.RHEL6
	if cfg.Kernel != nil {
		kernel = *cfg.Kernel
		out.Kernel = kernel.Name
	}
	out.RTOSeconds = kernel.RTO.Seconds()
	out.MaxAttempts = kernel.MaxAttempts
	out.Backoff = kernel.Backoff
	if cfg.Consolidation != nil {
		c := cfg.Consolidation.withDefaults()
		out.Consolidation = &ConsolidationJSON{
			Tier:                 c.Tier.String(),
			BatchSize:            c.BatchSize,
			BatchIntervalSeconds: c.BatchInterval.Seconds(),
			BatchOffsetSeconds:   c.BatchOffset.Seconds(),
			BatchClass:           BurstClass.Name,
			TrainLength:          c.TrainLength,
			TrainSpacingSeconds:  c.TrainSpacing.Seconds(),
			MMPPIndex:            c.MMPPIndex,
		}
	}
	if cfg.LogFlush != nil {
		l := cfg.LogFlush.withDefaults()
		out.LogFlush = &LogFlushJSON{
			Tier:            l.Tier.String(),
			IntervalSeconds: l.Interval.Seconds(),
			DurationSeconds: l.Duration.Seconds(),
		}
	}
	if cfg.GCPause != nil {
		g := cfg.GCPause.withDefaults()
		out.GCPause = &GCPauseJSON{
			Tier:             g.Tier.String(),
			IntervalSeconds:  g.Interval.Seconds(),
			BaseMillis:       float64(g.Base) / float64(time.Millisecond),
			PerRequestMillis: float64(g.PerRequest) / float64(time.Millisecond),
		}
	}
	return out
}

// spanBreakdownJSON flattens the critical-path table; nil without spans.
func spanBreakdownJSON(res *Result) *SpanBreakdownJSON {
	b := res.SpanBreakdown
	if b == nil {
		return nil
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := &SpanBreakdownJSON{
		Requests:      b.Requests,
		TailExemplars: len(res.Spans.TailExemplars()),
		VLRTWaitShare: b.VLRT.WaitShare(),
	}
	rows := append(append([]span.Row{}, b.Deciles...), b.P99, b.P999, b.VLRT)
	for _, r := range rows {
		if r.Count == 0 {
			continue
		}
		out.Rows = append(out.Rows, SpanRowJSON{
			Label:        r.Label,
			Count:        r.Count,
			MeanMillis:   ms(r.MeanRT),
			MaxMillis:    ms(r.MaxRT),
			QueueShare:   r.Share(span.KindQueueWait),
			ServiceShare: r.Share(span.KindService),
			RetransShare: r.Share(span.KindRetransmit),
			PoolShare:    r.Share(span.KindPoolWait),
		})
	}
	return out
}

// JSON renders the result summary as indented JSON.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(Summarize(r), "", "  ")
}
