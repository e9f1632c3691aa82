package span

// The reference tracer: the Tracer, Sampler and breakdown that shipped
// before traces were recycled and the breakdown moved into pointer-free
// arenas, kept verbatim apart from their names (and without the
// accessors the comparison does not read) as the differential oracle in
// diff_test.go. Every request gets a fresh trace, Finish folds it into a
// record holding a slice of its non-zero self times, and the sampler
// drops the traces it does not keep.

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

type refTracer struct {
	now     func() time.Duration
	sampler *refSampler
	records []refRecord
}

type refRecord struct {
	RT   time.Duration
	Cats []SelfTime
}

func newRefTracer(now func() time.Duration, cfg TracerConfig) *refTracer {
	if cfg.TailThreshold <= 0 {
		cfg.TailThreshold = DefaultTailThreshold
	}
	if cfg.Reservoir <= 0 {
		cfg.Reservoir = DefaultReservoir
	}
	return &refTracer{
		now:     now,
		sampler: newRefSampler(cfg.Seed, cfg.TailThreshold, cfg.Reservoir),
	}
}

func refNewTrace(now func() time.Duration, reqID uint64, class string) *Trace {
	t := &Trace{RequestID: reqID, Class: class, now: now}
	t.spans = append(t.spans, Span{
		ID: RootID, Kind: KindRequest, Tier: "client", Start: now(), End: open,
	})
	return t
}

func (tr *refTracer) StartRequest(reqID uint64, class string) *Trace {
	if tr == nil {
		return nil
	}
	return refNewTrace(tr.now, reqID, class)
}

func (tr *refTracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	t.finish()
	rec := refRecord{RT: t.ResponseTime()}
	for _, st := range refSelfTimes(t) {
		if st.Self > 0 {
			rec.Cats = append(rec.Cats, st)
		}
	}
	tr.records = append(tr.records, rec)
	tr.sampler.Offer(t)
}

func refSelfTimes(t *Trace) []SelfTime {
	if t == nil || len(t.spans) == 0 {
		return nil
	}
	childSum := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			childSum[s.Parent-1] += s.Duration()
		}
	}
	out := make([]SelfTime, 0, len(t.spans))
	for i, s := range t.spans {
		self := s.Duration() - childSum[i]
		if self < 0 {
			self = 0
		}
		out = append(out, SelfTime{Kind: s.Kind, Tier: s.Tier, Self: self})
	}
	return out
}

func (tr *refTracer) Breakdown() *Breakdown {
	if tr == nil || len(tr.records) == 0 {
		return nil
	}
	recs := make([]refRecord, len(tr.records))
	copy(recs, tr.records)
	sort.Slice(recs, func(i, j int) bool { return recs[i].RT < recs[j].RT })

	n := len(recs)
	b := &Breakdown{Requests: n}
	for d := 0; d < 10; d++ {
		lo, hi := n*d/10, n*(d+1)/10
		b.Deciles = append(b.Deciles,
			refAggregate(fmt.Sprintf("D%d", d+1), recs[lo:hi]))
	}
	b.P99 = refAggregate("p99", recs[n*99/100:])
	b.P999 = refAggregate("p99.9", recs[n*999/1000:])
	vlrtFrom := sort.Search(n, func(i int) bool { return recs[i].RT > vlrtThreshold })
	b.VLRT = refAggregate("VLRT>3s", recs[vlrtFrom:])
	return b
}

func refAggregate(label string, recs []refRecord) Row {
	row := Row{
		Label:      label,
		Count:      len(recs),
		ByKind:     make(map[Kind]time.Duration),
		ByTierKind: make(map[TierKind]time.Duration),
	}
	for _, r := range recs {
		row.Total += r.RT
		if r.RT > row.MaxRT {
			row.MaxRT = r.RT
		}
		for _, c := range r.Cats {
			row.ByKind[c.Kind] += c.Self
			row.ByTierKind[TierKind{Tier: c.Tier, Kind: c.Kind}] += c.Self
		}
	}
	if row.Count > 0 {
		row.MeanRT = row.Total / time.Duration(row.Count)
	}
	return row
}

type refSampler struct {
	threshold time.Duration
	capacity  int
	rng       *rand.Rand

	tail       []*Trace
	reservoir  []*Trace
	seenNormal int64
}

func newRefSampler(seed int64, threshold time.Duration, capacity int) *refSampler {
	if threshold <= 0 {
		threshold = DefaultTailThreshold
	}
	if capacity <= 0 {
		capacity = DefaultReservoir
	}
	return &refSampler{
		threshold: threshold,
		capacity:  capacity,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

func (s *refSampler) Offer(t *Trace) {
	if t == nil {
		return
	}
	if t.ResponseTime() > s.threshold {
		s.tail = append(s.tail, t)
		return
	}
	s.seenNormal++
	if len(s.reservoir) < s.capacity {
		s.reservoir = append(s.reservoir, t)
		return
	}
	// Algorithm R: replace a random slot with probability capacity/seen.
	if j := s.rng.Int63n(s.seenNormal); j < int64(s.capacity) {
		s.reservoir[j] = t
	}
}

func (s *refSampler) TailExemplars() []*Trace {
	out := make([]*Trace, len(s.tail))
	copy(out, s.tail)
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].ResponseTime(), out[j].ResponseTime()
		if ri != rj {
			return ri > rj
		}
		return out[i].RequestID < out[j].RequestID
	})
	return out
}
