package span

import (
	"math/rand"
	"sort"
	"time"
)

// Sampler chooses which finished traces to keep: every trace whose
// response time exceeds the tail threshold is kept in full (those are the
// requests the analysis must explain), while normal traces flow through a
// classic reservoir sample of fixed capacity. Only the normal traces are
// bounded, by the reservoir; the tail trees grow with the number of slow
// requests in the run. The reservoir uses its own seeded RNG so sampling
// is reproducible and independent of the simulation's random stream.
type Sampler struct {
	threshold time.Duration
	capacity  int
	rng       *rand.Rand

	tail       []*Trace
	reservoir  []*Trace
	seenNormal int64
}

// newSampler creates a sampler keeping all traces slower than threshold
// plus a reservoir of at most capacity normal ones.
func newSampler(seed int64, threshold time.Duration, capacity int) *Sampler {
	return &Sampler{
		threshold: threshold,
		capacity:  capacity,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Offer presents a finished trace for keeping and returns the trace it
// lets go, if any: t itself when the reservoir draw rejects it, or the
// member the draw evicts to make room for t. Tail exemplars and current
// reservoir members are never returned.
func (s *Sampler) Offer(t *Trace) *Trace {
	if t == nil {
		return nil
	}
	if t.ResponseTime() > s.threshold {
		s.tail = append(s.tail, t)
		return nil
	}
	s.seenNormal++
	if len(s.reservoir) < s.capacity {
		s.reservoir = append(s.reservoir, t)
		return nil
	}
	// Algorithm R: replace a random slot with probability capacity/seen.
	if j := s.rng.Int63n(s.seenNormal); j < int64(s.capacity) {
		evicted := s.reservoir[j]
		s.reservoir[j] = t
		return evicted
	}
	return t
}

// TailExemplars returns the kept over-threshold traces, slowest first
// (ties broken by request ID for determinism).
func (s *Sampler) TailExemplars() []*Trace {
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

// Reservoir returns the current normal-trace sample (shared slice; callers
// must not mutate).
func (s *Sampler) Reservoir() []*Trace { return s.reservoir }
