package span

import "time"

// DefaultTailThreshold marks a request as a tail exemplar: its full span
// tree is always kept. One second is well below the 3s VLRT criterion, so
// every retransmission-afflicted request qualifies, plus the deep-queue
// requests that almost made it.
const DefaultTailThreshold = time.Second

// DefaultReservoir is the seeded-reservoir capacity for sub-threshold
// traces.
const DefaultReservoir = 128

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// Seed drives the reservoir sampler's own RNG (never the
	// simulator's, so tracing does not perturb workload randomness).
	Seed int64
	// TailThreshold is the keep-everything latency bound; zero defaults
	// to DefaultTailThreshold.
	TailThreshold time.Duration
	// Reservoir is the normal-trace reservoir capacity; zero defaults to
	// DefaultReservoir.
	Reservoir int
}

// Tracer creates and collects per-request traces. Full trees are kept
// only for tail exemplars plus a fixed-size reservoir of normal requests,
// and every finished trace is folded into a compact per-request breakdown
// record. Only the normal trees are bounded, by the reservoir: the tail
// trees grow with the number of slow requests, and the records with the
// number of finished requests, for the whole run.
//
// Every exported method is safe on a nil receiver — that is how disabled
// tracing stays free on the hot path — and ctqo-lint's nilsafe analyzer
// enforces the guard on each of them.
//
//lint:nilsafe
type Tracer struct {
	now     func() time.Duration
	sampler *Sampler
	records []Record
}

// Record is the compact critical-path summary of one finished request:
// its response time and the exclusive time per (tier, kind) category.
type Record struct {
	// RT is the end-to-end response time.
	RT time.Duration
	// Cats are the non-zero exclusive-time categories.
	Cats []SelfTime
}

// NewTracer creates a tracer reading time from now (the simulator clock,
// or a wall-clock offset for live mode).
func NewTracer(now func() time.Duration, cfg TracerConfig) *Tracer {
	if cfg.TailThreshold <= 0 {
		cfg.TailThreshold = DefaultTailThreshold
	}
	if cfg.Reservoir <= 0 {
		cfg.Reservoir = DefaultReservoir
	}
	return &Tracer{
		now:     now,
		sampler: NewSampler(cfg.Seed, cfg.TailThreshold, cfg.Reservoir),
	}
}

// StartRequest opens a trace for one request. On a nil tracer it returns
// nil, which disables all downstream span recording for the request.
//
//lint:hotpath disabled-tracer path must be free
func (tr *Tracer) StartRequest(reqID uint64, class string) *Trace {
	if tr == nil {
		return nil
	}
	return newTrace(tr.now, reqID, class) //lint:allow allocs enabled tracer; a nil tracer returns before this
}

// Finish closes the trace, folds it into the breakdown records and offers
// the full tree to the tail-exemplar sampler. Safe on a nil tracer or a
// nil trace: everything past the guard is the enabled-tracer path, priced
// only when tracing is on.
//
//lint:hotpath disabled-tracer path must be free
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.finish()
	rec := Record{RT: t.ResponseTime()}
	for _, st := range t.SelfTimes() { //lint:allow allocs enabled-tracer decomposition
		if st.Self > 0 {
			rec.Cats = append(rec.Cats, st) //lint:allow allocs enabled-tracer record
		}
	}
	tr.records = append(tr.records, rec) //lint:allow allocs enabled-tracer record, one per finished request
	tr.sampler.Offer(t)                  //lint:allow allocs enabled-tracer sampling
}

// Finished returns the number of traces folded into the breakdown.
func (tr *Tracer) Finished() int {
	if tr == nil {
		return 0
	}
	return len(tr.records)
}

// Records returns the compact per-request summaries (shared slice;
// callers must not mutate).
func (tr *Tracer) Records() []Record {
	if tr == nil {
		return nil
	}
	return tr.records
}

// TailExemplars returns the kept over-threshold traces, slowest first.
func (tr *Tracer) TailExemplars() []*Trace {
	if tr == nil {
		return nil
	}
	return tr.sampler.TailExemplars()
}

// Reservoir returns the seeded sample of normal (sub-threshold) traces.
func (tr *Tracer) Reservoir() []*Trace {
	if tr == nil {
		return nil
	}
	return tr.sampler.Reservoir()
}
