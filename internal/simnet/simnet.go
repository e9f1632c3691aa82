// Package simnet models the inter-server transport of the n-tier testbed:
// bounded admission at each receiver, packet drops on overflow, and the
// fixed TCP retransmission timer that turns a dropped packet into a
// multi-second response-time outlier.
//
// The paper (Section III) attributes the 3/6/9-second clusters in the
// response-time distribution to the 3-second TCP retransmission timeout of
// RHEL 6 (kernel 2.6.32). Transport reproduces that mechanism directly: a
// call that is refused by the receiver's admission control is retried after
// RTO, and each retry can itself be dropped, adding another RTO.
package simnet

import (
	"fmt"
	"sort"
	"time"

	"ctqosim/internal/des"
	"ctqosim/internal/span"
)

// DefaultRTO is the retransmission timeout of the paper's kernel (2.6.32).
const DefaultRTO = 3 * time.Second

// DefaultMaxAttempts bounds delivery attempts (1 original + retries). Five
// attempts put the worst surviving response past the 9-second cluster that
// Fig. 1 shows.
const DefaultMaxAttempts = 5

// Admission is a receiver's ingress policy: a synchronous server admits up
// to threads+backlog requests (its MaxSysQDepth); an asynchronous server
// admits up to LiteQDepth. Implemented by the server package.
type Admission interface {
	// Name identifies the receiver in drop statistics and traces.
	Name() string
	// TryAccept admits the call (queuing or servicing it) and returns true,
	// or refuses it and returns false. A refused call is a dropped packet.
	TryAccept(call *Call) bool
}

// Call is one request/response exchange between a sender and a receiver.
type Call struct {
	// Payload is the message body, opaque to the transport.
	Payload any
	// Done, if non-nil, is invoked once when the exchange ends, by the
	// receiver's reply or by the transport giving up. failedAt is empty
	// on success; otherwise it names the server the request failed at:
	// the destination given up on, a server further down, or the
	// receiver itself when it shed the request.
	Done func(failedAt string)

	// FirstSent is when the first attempt was made.
	FirstSent time.Duration
	// Attempts counts delivery attempts so far.
	Attempts int

	// Trace, when non-nil, is the end-to-end request's span tree; SpanID is
	// the span on whose behalf this call is in flight (the caller's service
	// span, or the root for the client's top-level call). The transport
	// parents retransmission-gap spans under it, and the receiving server
	// parents its queue-wait and service spans under it.
	Trace  *span.Trace
	SpanID span.ID

	// retransGap, transport and dst carry a dropped call across its RTO
	// wait: the gap span to close and where to retransmit to. retransGap
	// sits beside SpanID so the two share a word and a Call stays in the
	// 96-byte size class. deliver is the call's retransmission callback,
	// bound on its first drop, so the transport schedules retransmissions
	// without allocating a closure per event.
	retransGap span.ID
	transport  *Transport
	dst        Admission
	deliver    func()
}

// Cleared returns the call with its exchange over and every reference
// dropped, keeping only its callbacks: Done and the retransmission
// callback bound on its first drop. That callback acts on this Call, so
// assign the result back to it: a pooled call is reused in place and
// binds its retransmission callback once, not once per reuse.
func (c *Call) Cleared() Call {
	return Call{Done: c.Done, deliver: c.deliver}
}

// Retransmits returns the number of retransmissions (attempts beyond the
// first).
func (c *Call) Retransmits() int {
	if c.Attempts <= 1 {
		return 0
	}
	return c.Attempts - 1
}

// DropRecorder is implemented by payloads that want per-request drop
// attribution. The end-to-end workload request implements it, so drops on
// any hop of its invocation chain — client→web, web→app, app→db — are
// attributed to the server that dropped the packet, as in the paper's
// VLRT-per-server plots.
type DropRecorder interface {
	// DroppedAt records that server dropped a packet of this request.
	DroppedAt(server string)
}

// Drop is one dropped packet: when it was refused and by which server.
// It is what the CTQO analysis correlates with millibottlenecks.
type Drop struct {
	At     time.Duration
	Server string
}

// HopStats aggregates per-destination transport counters.
type HopStats struct {
	Attempts    int64
	Delivered   int64
	Dropped     int64
	Retransmits int64
	GaveUp      int64
}

// Transport delivers calls with drop/retransmission semantics.
type Transport struct {
	sim *des.Simulator

	// RTO is the retransmission timeout; zero means DefaultRTO.
	RTO time.Duration
	// MaxAttempts bounds total delivery attempts; zero means
	// DefaultMaxAttempts.
	MaxAttempts int
	// Backoff, when true, doubles the timeout after every drop
	// (3s, 6s, 12s…) instead of the fixed timer. The paper's clusters at
	// exactly 3/6/9s correspond to the fixed timer; the exponential
	// variant exists for the ablation bench.
	Backoff bool
	// KeepDrops, when true, records every drop for Drops, the input of
	// the CTQO analysis. Off, the transport keeps no per-drop state.
	KeepDrops bool

	stats map[string]*HopStats
	drops []Drop
}

// NewTransport creates a transport with the paper's kernel defaults.
func NewTransport(sim *des.Simulator) *Transport {
	return &Transport{
		sim:   sim,
		stats: make(map[string]*HopStats),
	}
}

// Send attempts delivery of call to dst, retransmitting on drops. The call's
// FirstSent is stamped on the first attempt. The LAN is modeled as
// instantaneous, as in the paper, so the receiver sees the packet at
// once. Retransmissions are pooled des events running the call's bound
// callback, so steady-state sending allocates nothing. A Call may be
// reused once its exchange has ended: reset Attempts to zero and send it
// again, on this or another Transport.
//
//lint:hotpath simnet delivery path
func (t *Transport) Send(dst Admission, call *Call) {
	if call.Attempts == 0 {
		call.FirstSent = t.sim.Now()
	}
	s := t.hop(dst.Name())
	s.Attempts++
	call.Attempts++

	if dst.TryAccept(call) {
		s.Delivered++
		return
	}

	s.Dropped++
	if r, ok := call.Payload.(DropRecorder); ok {
		r.DroppedAt(dst.Name())
	}
	if t.KeepDrops {
		t.drops = append(t.drops, Drop{At: t.sim.Now(), Server: dst.Name()}) //lint:allow hotpath KeepDrops only: one record per drop, off on untraced runs
	}

	if call.Attempts >= t.maxAttempts() {
		s.GaveUp++
		if call.Done != nil {
			call.Done(dst.Name())
		}
		return
	}

	s.Retransmits++
	// The RTO wait is the paper's tail mechanism; give it a span of its
	// own, attributed to the dropping server, closed when the retry fires.
	gap := call.Trace.Start(span.KindRetransmit, dst.Name(), call.SpanID)
	if gap != 0 {
		call.Trace.Annotate(gap, fmt.Sprintf( //lint:allow hotpath enabled-tracer annotation on the (already rare) drop path
			"attempt %d dropped by %s; waiting RTO", call.Attempts, dst.Name()))
	}
	call.retransGap = gap
	call.transport, call.dst = t, dst
	t.sim.Schedule(t.timeout(call.Attempts), call.deliverer())
}

// deliverer returns the call's retransmission callback, binding it on
// first use. When it fires it closes the retransmission-gap span and
// makes the next attempt on the transport and destination that dropped
// the call.
//
//lint:hotpath simnet delivery path
func (c *Call) deliverer() func() {
	if c.deliver == nil {
		c.deliver = func() { //lint:allow hotpath one callback per Call, bound on its first drop: never on clean delivery
			c.Trace.End(c.retransGap)
			c.retransGap = 0
			c.transport.Send(c.dst, c)
		}
	}
	return c.deliver
}

// Stats returns the accumulated counters for a destination. The returned
// struct is a copy.
func (t *Transport) Stats(dst string) HopStats {
	if s, ok := t.stats[dst]; ok {
		return *s
	}
	return HopStats{}
}

// Destinations returns the names of all destinations with recorded
// traffic, sorted so downstream reports are deterministic.
func (t *Transport) Destinations() []string {
	names := make([]string, 0, len(t.stats))
	for name := range t.stats {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Drops returns the drops recorded while KeepDrops was set, in time
// order (shared slice; callers must not mutate). Nil if none were kept.
func (t *Transport) Drops() []Drop { return t.drops }

// TotalDrops returns the number of dropped packets across all destinations.
func (t *Transport) TotalDrops() int64 {
	var total int64
	for _, s := range t.stats {
		total += s.Dropped
	}
	return total
}

//lint:hotpath
func (t *Transport) hop(name string) *HopStats {
	s, ok := t.stats[name]
	if !ok {
		s = &HopStats{} //lint:allow hotpath one accumulator per destination, first traffic only
		t.stats[name] = s
	}
	return s
}

//lint:hotpath
func (t *Transport) rto() time.Duration {
	if t.RTO > 0 {
		return t.RTO
	}
	return DefaultRTO
}

//lint:hotpath
func (t *Transport) maxAttempts() int {
	if t.MaxAttempts > 0 {
		return t.MaxAttempts
	}
	return DefaultMaxAttempts
}

// timeout returns the wait before the next attempt, given the number of
// attempts already made.
//
//lint:hotpath
func (t *Transport) timeout(attempts int) time.Duration {
	rto := t.rto()
	if !t.Backoff {
		return rto
	}
	for i := 1; i < attempts; i++ {
		rto *= 2
	}
	return rto
}
