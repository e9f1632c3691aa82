// Package span implements per-request span-tree tracing for the n-tier
// reproduction: the micro-level counterpart of the aggregate CTQO report.
//
// The paper's Section IV methodology explains each Very Long Response Time
// request causally — which server dropped its packet, how many 3-second
// retransmission timeouts it waited through, where it queued. This package
// makes that decomposition first-class: every request carries a Trace, and
// each tier appends child spans for accept-queue wait, thread/worker
// service, downstream calls, connection-pool waits and retransmission gaps
// (annotated with the dropping server). A completed 6-second VLRT request
// therefore decomposes exactly into the paper's mechanisms: two 3s RTO
// gaps plus milliseconds of queueing and service.
//
// Tracing is opt-in and free when off: all Trace methods are safe on a nil
// receiver and a nil *Tracer hands out nil traces, so instrumented code
// calls them unconditionally and a disabled tracer costs no allocations on
// the hot path. Enabling tracing does not change simulation dynamics — the
// tracer schedules no events and draws from its own seeded RNG, never the
// simulator's.
//
// Tracer.Finish takes the trace. The tracer reuses every trace its
// sampler does not keep for a later request, so whoever started a trace
// must hand it to Finish only once nothing will record on it again, and
// must not touch it afterwards: Start, End and Annotate on a finished
// trace panic.
package span

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind classifies what a span's interval was spent on.
type Kind uint8

// Span kinds, in causal-story order.
const (
	// KindRequest is the root span: the end-to-end request.
	KindRequest Kind = iota + 1
	// KindQueueWait is time spent admitted but unserved: a sync server's
	// accept queue or an async server's ready queue (including
	// continuation hand-offs waiting for a free worker).
	KindQueueWait
	// KindService is time holding a thread or worker. For a synchronous
	// server it covers the whole thread-held visit (downstream children
	// subtract out); for an asynchronous server it covers one CPU burst.
	KindService
	// KindDownstream is a call to the next tier, from send to reply.
	KindDownstream
	// KindRetransmit is an RTO gap: a delivery attempt was dropped and the
	// sender is waiting for the retransmission timer. Tier names the
	// server that dropped the packet.
	KindRetransmit
	// KindPoolWait is time blocked on a connection pool (the JDBC pool
	// between the app and database tiers).
	KindPoolWait
)

// kindCount bounds the kinds, for tables indexed by Kind; KindPoolWait
// is the last.
const kindCount = int(KindPoolWait) + 1

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindQueueWait:
		return "queue-wait"
	case KindService:
		return "service"
	case KindDownstream:
		return "downstream"
	case KindRetransmit:
		return "retransmit"
	case KindPoolWait:
		return "pool-wait"
	default:
		return "unknown"
	}
}

// ID identifies a span within its trace. The zero ID means "no span"; all
// operations on it are no-ops, so disabled-tracer code paths need no
// branches.
type ID int32

// RootID is the ID of every trace's root request span.
const RootID ID = 1

// open marks a span whose End has not been recorded yet.
const open = time.Duration(-1)

// Span is one timed interval of a request's life.
type Span struct {
	// ID is this span's identifier; Parent is the enclosing span (0 only
	// for the root).
	ID, Parent ID
	// Kind classifies the interval.
	Kind Kind
	// Tier is the server the interval belongs to; for KindRetransmit it is
	// the server that dropped the packet, for KindRequest the client.
	Tier string
	// Detail carries an optional annotation (e.g. which attempt was
	// dropped).
	Detail string
	// Start and End bound the interval in simulated (or live wall-clock)
	// time. End is negative while the span is open.
	Start, End time.Duration
}

// Duration returns the span length (zero while open).
func (s Span) Duration() time.Duration {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Trace is one request's span tree, stored as a flat slice indexed by ID.
// Exported methods are nil-receiver safe (pinned by TestNilSafety) so a
// disabled tracer's nil traces cost callers nothing.
type Trace struct {
	// RequestID echoes the workload request.
	RequestID uint64
	// Class is the interaction class name.
	Class string

	now      func() time.Duration
	spans    []Span
	finished bool // set by finish; Start, End and Annotate then panic
}

// lateSpan is the panic message of a span operation on a finished trace.
// It is a constant so the hot-path functions that raise it allocate
// nothing to do so.
const lateSpan = "span: trace used after Tracer.Finish took it"

// reopen starts t over for a new request with its root request span
// open, keeping the span slice's storage.
func (t *Trace) reopen(reqID uint64, class string) {
	t.RequestID, t.Class, t.finished = reqID, class, false
	t.spans = append(t.spans[:0], Span{ //lint:allow hotpath enabled tracer: a new trace's first span; a reopened one keeps its storage
		ID: RootID, Kind: KindRequest, Tier: "client", Start: t.now(), End: open,
	})
}

// Enabled reports whether the trace records spans; callers may use it to
// skip work (e.g. formatting annotations) that only matters when tracing.
//
//lint:hotpath
func (t *Trace) Enabled() bool { return t != nil }

// Start opens a child span of parent and returns its ID. On a nil trace it
// returns 0 and records nothing — the disabled-tracer path is the one the
// hot-path contract holds allocation-free. It panics on a finished trace.
//
//lint:hotpath disabled-tracer path must be free
func (t *Trace) Start(kind Kind, tier string, parent ID) ID {
	if t == nil {
		return 0
	}
	if t.finished {
		panic(lateSpan)
	}
	id := ID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ //lint:allow hotpath enabled-tracer span; a nil trace records nothing
		ID: id, Parent: parent, Kind: kind, Tier: tier,
		Start: t.now(), End: open,
	})
	return id
}

// End closes the span. Safe on a nil trace, the zero ID and an already
// closed span (first close wins); it panics on a finished trace.
//
//lint:hotpath
func (t *Trace) End(id ID) {
	if t == nil {
		return
	}
	if t.finished {
		panic(lateSpan)
	}
	if id <= 0 || int(id) > len(t.spans) {
		return
	}
	if s := &t.spans[id-1]; s.End == open {
		s.End = t.now()
	}
}

// Annotate sets the span's detail string. It panics on a finished trace.
//
//lint:hotpath
func (t *Trace) Annotate(id ID, detail string) {
	if t == nil {
		return
	}
	if t.finished {
		panic(lateSpan)
	}
	if id <= 0 || int(id) > len(t.spans) {
		return
	}
	t.spans[id-1].Detail = detail
}

// finish closes the root, clamps any still-open span to the root's end
// (give-up paths can leave downstream spans dangling) and marks the trace
// finished.
func (t *Trace) finish() {
	if t == nil {
		return
	}
	t.End(RootID)
	end := t.spans[0].End
	for i := range t.spans {
		if t.spans[i].End == open {
			t.spans[i].End = end
		}
	}
	t.finished = true
}

// Spans returns the recorded spans in creation order (shared slice;
// callers must not mutate).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Root returns the root request span.
func (t *Trace) Root() Span {
	if t == nil || len(t.spans) == 0 {
		return Span{}
	}
	return t.spans[0]
}

// ResponseTime returns the root span's duration.
func (t *Trace) ResponseTime() time.Duration { return t.Root().Duration() }

// Retransmits returns the number of retransmission-gap spans in the trace.
func (t *Trace) Retransmits() int {
	n := 0
	for _, s := range t.Spans() {
		if s.Kind == KindRetransmit {
			n++
		}
	}
	return n
}

// SelfTimes decomposes the trace into exclusive (self) times: each span's
// duration minus the durations of its direct children, clamped at zero.
// The self times of all spans sum to the response time (any uncovered
// remainder stays with the parent span), which is what makes the
// critical-path breakdown exact.
func (t *Trace) SelfTimes() []SelfTime {
	if t == nil || len(t.spans) == 0 {
		return nil
	}
	childSum := t.childSums(nil)
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

// childSums returns, per span, the summed duration of its direct
// children, reusing buf's storage.
func (t *Trace) childSums(buf []time.Duration) []time.Duration {
	if cap(buf) < len(t.spans) {
		buf = make([]time.Duration, len(t.spans))
	}
	buf = buf[:len(t.spans)]
	clear(buf)
	for _, s := range t.spans {
		if s.Parent > 0 {
			buf[s.Parent-1] += s.Duration()
		}
	}
	return buf
}

// SelfTime is one span's exclusive contribution to the response time.
type SelfTime struct {
	// Kind and Tier identify the category.
	Kind Kind
	Tier string
	// Self is the exclusive duration.
	Self time.Duration
}

// Tree renders the span tree in human-readable indented form, children
// sorted by start time.
func (t *Trace) Tree() string {
	if t == nil || len(t.spans) == 0 {
		return "(no trace)\n"
	}
	children := make(map[ID][]Span)
	for _, s := range t.spans {
		if s.ID != RootID {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool {
			if c[i].Start != c[j].Start {
				return c[i].Start < c[j].Start
			}
			return c[i].ID < c[j].ID
		})
	}
	var b strings.Builder
	root := t.Root()
	fmt.Fprintf(&b, "request %d (%s) — %v\n",
		t.RequestID, t.Class, root.Duration().Round(time.Millisecond))
	var walk func(id ID, depth int)
	walk = func(id ID, depth int) {
		for _, s := range children[id] {
			fmt.Fprintf(&b, "%s%s %s @%v +%v",
				strings.Repeat("  ", depth), s.Kind, s.Tier,
				s.Start.Round(time.Millisecond),
				s.Duration().Round(time.Millisecond))
			if s.Detail != "" {
				fmt.Fprintf(&b, "  (%s)", s.Detail)
			}
			b.WriteByte('\n')
			walk(s.ID, depth+1)
		}
	}
	walk(RootID, 1)
	return b.String()
}
