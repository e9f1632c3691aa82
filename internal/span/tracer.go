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
// Finish takes the trace: a trace the sampler does not keep goes back to
// the tracer and StartRequest reopens it for a later request, span
// storage and all. So a trace must not be touched once it is finished;
// Start, End and Annotate on a finished trace panic.
//
// The breakdown storage is two arenas of pointer-free entries, which the
// garbage collector does not scan: one record per request, indexing a
// shared run of non-zero categories, each naming its tier by an index
// into the tracer's interned tier names.
//
// Every exported method is safe on a nil receiver — that is how disabled
// tracing stays free on the hot path — and TestNilSafety calls each of
// them on a nil Tracer and a nil Trace.
type Tracer struct {
	now     func() time.Duration
	sampler *Sampler
	free    []*Trace // traces the sampler let go, for StartRequest to reopen

	records arena[record]   // one per finished request, in finish order
	cats    arena[category] // the records' categories, record after record
	tiers   []string        // interned tier names, indexed by category.tier
	tierIdx map[string]int32
	sums    []time.Duration // Finish's child-sum scratch, one per span
}

// record is one finished request in the breakdown storage: its response
// time and its categories, entries lo to hi-1 of the category arena.
type record struct {
	rt     time.Duration
	lo, hi int32
}

// category is one span's non-zero exclusive time, keyed by its tier (an
// index into Tracer.tiers) and kind.
type category struct {
	self time.Duration
	tier int32
	kind Kind
}

// arenaChunk is the number of entries in each chunk of an arena.
const arenaChunk = 4096

// arena is an append-only sequence kept in fixed-size chunks. Growing it
// never copies what it holds, so a sequence kept for the whole run costs
// its own size in allocations, where append's 1.25x growth of a large
// slice costs about five times that.
type arena[T any] struct {
	chunks [][]T
	n      int
}

// add appends v.
func (a *arena[T]) add(v T) {
	if a.n%arenaChunk == 0 {
		a.chunks = append(a.chunks, make([]T, 0, arenaChunk))
	}
	last := len(a.chunks) - 1
	a.chunks[last] = append(a.chunks[last], v)
	a.n++
}

// at returns entry i.
func (a *arena[T]) at(i int) T { return a.chunks[i/arenaChunk][i%arenaChunk] }

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
		tierIdx: make(map[string]int32),
	}
}

// StartRequest opens a trace for one request, reopening one the sampler
// let go when there is one. On a nil tracer it returns nil, which
// disables all downstream span recording for the request.
//
//lint:hotpath disabled-tracer path must be free
func (tr *Tracer) StartRequest(reqID uint64, class string) *Trace {
	if tr == nil {
		return nil
	}
	var t *Trace
	if n := len(tr.free); n > 0 {
		t, tr.free = tr.free[n-1], tr.free[:n-1]
	} else {
		t = &Trace{now: tr.now} //lint:allow hotpath enabled tracer: a new trace only when none is free, as at warm-up and after each kept trace
	}
	t.reopen(reqID, class)
	return t
}

// Finish closes the trace, folds it into the breakdown records and offers
// the full tree to the tail-exemplar sampler. It takes the trace: if the
// sampler does not keep it, a later StartRequest reopens it. Safe on a nil
// tracer or a nil trace: everything past the guard is the enabled-tracer
// path, priced only when tracing is on.
//
//lint:hotpath disabled-tracer path must be free
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.finish()
	//lint:allow hotpath enabled-tracer breakdown storage, grown a chunk at a time
	tr.fold(t)
	if freed := tr.sampler.Offer(t); freed != nil { //lint:allow hotpath enabled-tracer sampling
		tr.free = append(tr.free, freed) //lint:allow hotpath enabled tracer: grows to the number of traces in flight at once
	}
}

// fold appends t's breakdown record: its response time and each span's
// non-zero exclusive time, in span order.
func (tr *Tracer) fold(t *Trace) {
	tr.sums = t.childSums(tr.sums)
	lo := tr.cats.n
	for i, s := range t.spans {
		if self := s.Duration() - tr.sums[i]; self > 0 {
			tr.cats.add(category{self: self, tier: tr.intern(s.Tier), kind: s.Kind})
		}
	}
	tr.records.add(record{rt: t.ResponseTime(), lo: int32(lo), hi: int32(tr.cats.n)})
}

// intern returns tier's index in tr.tiers, adding it on first sight.
func (tr *Tracer) intern(tier string) int32 {
	i, ok := tr.tierIdx[tier]
	if !ok {
		i = int32(len(tr.tiers))
		tr.tiers = append(tr.tiers, tier)
		tr.tierIdx[tier] = i
	}
	return i
}

// Finished returns the number of traces folded into the breakdown.
func (tr *Tracer) Finished() int {
	if tr == nil {
		return 0
	}
	return tr.records.n
}

// TailExemplars returns the kept over-threshold traces, slowest first.
func (tr *Tracer) TailExemplars() []*Trace {
	if tr == nil {
		return nil
	}
	return tr.sampler.TailExemplars()
}

// Reservoir returns the seeded sample of normal (sub-threshold) traces.
// A later Finish may evict a member and reopen it for another request,
// so read the sample once the traced requests have finished.
func (tr *Tracer) Reservoir() []*Trace {
	if tr == nil {
		return nil
	}
	return tr.sampler.Reservoir()
}
