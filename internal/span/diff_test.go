package span

// Differential check of the Tracer against the reference copy in
// ref_test.go. Both get the same seeded stream of overlapping requests:
// random span trees with nesting, children that outlive their parents,
// retransmission gaps, dangling spans that Finish clamps and repeated
// Ends, with response times on both sides of the 1 s tail threshold and
// the 3 s VLRT criterion, many of them tied. A reservoir of two makes
// the tracer reopen a trace for almost every request. The breakdowns
// must be equal, and so must the trees and the trace-event bytes of every
// tail exemplar and reservoir trace.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// Steps of a request's life, in the order they run at one instant.
const (
	opOpen = iota
	opStart
	opEnd
	opFinish
)

// diffOp is one step of request req at simulated time at: open it, start
// or end its span k, or finish it.
type diffOp struct {
	at    time.Duration
	phase int
	req   int
	k     int
}

// diffSpan is one planned span of a request; parent indexes the
// request's spans, -1 for the root.
type diffSpan struct {
	kind   Kind
	tier   string
	parent int
	detail string
}

// diffRequests plans n requests, each starting up to 3 ms after the one
// before, and returns them with their steps in execution order.
func diffRequests(rng *rand.Rand, n int) ([][]diffSpan, []diffOp) {
	tiers := []string{"web", "app", "db", "steady-mysql"}
	// upTo draws a duration in [0, d] on a 100 µs grid, so spans tie.
	upTo := func(d time.Duration) time.Duration {
		const q = 100 * time.Microsecond
		return time.Duration(rng.Int63n(int64(d/q)+1)) * q
	}
	reqs := make([][]diffSpan, n)
	var ops []diffOp
	var start time.Duration
	for i := range reqs {
		start += time.Duration(rng.Intn(3000)) * time.Microsecond
		var rt time.Duration
		switch p := rng.Intn(20); {
		case p < 11:
			rt = time.Duration(1+rng.Intn(40)) * time.Millisecond
		case p < 14: // around the 1 s tail threshold
			rt = time.Duration(990+rng.Intn(21)) * time.Millisecond
		case p < 17: // around the 3 s VLRT criterion
			rt = time.Duration(2990+rng.Intn(21)) * time.Millisecond
		default:
			rt = time.Duration(6000+rng.Intn(3101)) * time.Millisecond
		}
		end := start + rt
		ops = append(ops, diffOp{at: start, phase: opOpen, req: i})
		starts := make([]time.Duration, 6+rng.Intn(13))
		for k := range starts {
			sp := diffSpan{
				kind:   Kind(int(KindQueueWait) + rng.Intn(5)),
				tier:   tiers[rng.Intn(len(tiers))],
				parent: rng.Intn(k+1) - 1,
			}
			from := start
			if sp.parent >= 0 {
				from = starts[sp.parent]
			}
			starts[k] = from + upTo(end-from)
			stop := starts[k] + upTo(end-starts[k])
			if sp.kind == KindRetransmit {
				sp.detail = fmt.Sprintf("attempt %d dropped by %s; waiting RTO", k+1, sp.tier)
				if end-starts[k] >= 3*time.Second {
					stop = starts[k] + 3*time.Second
				}
			}
			reqs[i] = append(reqs[i], sp)
			ops = append(ops, diffOp{at: starts[k], phase: opStart, req: i, k: k})
			switch rng.Intn(10) {
			case 0: // dangling: Finish clamps it to the root's end
			case 1: // ended twice; the first End wins
				ops = append(ops,
					diffOp{at: stop, phase: opEnd, req: i, k: k},
					diffOp{at: stop + upTo(end-stop), phase: opEnd, req: i, k: k})
			default:
				ops = append(ops, diffOp{at: stop, phase: opEnd, req: i, k: k})
			}
		}
		ops = append(ops, diffOp{at: end, phase: opFinish, req: i})
	}
	sort.SliceStable(ops, func(a, b int) bool {
		if ops[a].at != ops[b].at {
			return ops[a].at < ops[b].at
		}
		return ops[a].phase < ops[b].phase
	})
	return reqs, ops
}

func TestTracerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			reqs, ops := diffRequests(rand.New(rand.NewSource(seed)), 1500)
			clk := &fakeClock{}
			cfg := TracerConfig{Seed: seed, Reservoir: 2}
			got, want := NewTracer(clk.now, cfg), newRefTracer(clk.now, cfg)

			gotT := make([]*Trace, len(reqs))
			wantT := make([]*Trace, len(reqs))
			ids := make([][]ID, len(reqs))
			handedOut := make(map[*Trace]bool)
			for n, op := range ops {
				clk.at = op.at
				i := op.req
				switch op.phase {
				case opOpen:
					class := fmt.Sprintf("class%d", i%3)
					gotT[i] = got.StartRequest(uint64(i), class)
					wantT[i] = want.StartRequest(uint64(i), class)
					ids[i] = make([]ID, len(reqs[i]))
					handedOut[gotT[i]] = true
				case opStart:
					sp := reqs[i][op.k]
					parent := RootID
					if sp.parent >= 0 {
						parent = ids[i][sp.parent]
					}
					id := gotT[i].Start(sp.kind, sp.tier, parent)
					if w := wantT[i].Start(sp.kind, sp.tier, parent); id != w {
						t.Fatalf("request %d span %d: ID %d, reference %d", i, op.k, id, w)
					}
					ids[i][op.k] = id
					if sp.detail != "" {
						gotT[i].Annotate(id, sp.detail)
						wantT[i].Annotate(id, sp.detail)
					}
				case opEnd:
					gotT[i].End(ids[i][op.k])
					wantT[i].End(ids[i][op.k])
				case opFinish:
					got.Finish(gotT[i])
					want.Finish(wantT[i])
					gotT[i], wantT[i] = nil, nil
				}
				if n == len(ops)/2 {
					compareWithReference(t, "halfway", got, want)
				}
			}
			compareWithReference(t, "at the end", got, want)
			if len(handedOut) > len(reqs)/2 {
				t.Errorf("%d distinct traces for %d requests: the tracer reused too few to test reuse",
					len(handedOut), len(reqs))
			}
		})
	}
}

// compareWithReference requires got to have folded, sampled and kept
// exactly what want did.
func compareWithReference(t *testing.T, when string, got *Tracer, want *refTracer) {
	t.Helper()
	if got.Finished() != len(want.records) {
		t.Fatalf("%s: %d finished, reference %d", when, got.Finished(), len(want.records))
	}
	gb, wb := got.Breakdown(), want.Breakdown()
	if !reflect.DeepEqual(gb, wb) {
		t.Fatalf("%s: breakdown differs from the reference:\n%s\nreference:\n%s", when, gb, wb)
	}
	if gb.String() != wb.String() {
		t.Fatalf("%s: rendered breakdown differs:\n%s\nreference:\n%s", when, gb, wb)
	}
	compareTraces(t, when+", tail exemplars", got.TailExemplars(), want.sampler.TailExemplars())
	compareTraces(t, when+", reservoir", got.Reservoir(), want.sampler.reservoir)
}

// compareTraces requires equal trees and trace-event bytes.
func compareTraces(t *testing.T, what string, got, want []*Trace) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d traces, reference %d", what, len(got), len(want))
	}
	var gotTrees, wantTrees strings.Builder
	for i := range got {
		gotTrees.WriteString(got[i].Tree())
		wantTrees.WriteString(want[i].Tree())
	}
	if gotTrees.String() != wantTrees.String() {
		t.Fatalf("%s: trees differ:\n%s\nreference:\n%s", what, gotTrees.String(), wantTrees.String())
	}
	var gotJSON, wantJSON bytes.Buffer
	if err := WriteTraceEvents(&gotJSON, got); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceEvents(&wantJSON, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Fatalf("%s: trace-event JSON differs", what)
	}
}
