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
	"slices"
	"sort"
	"time"

	"ctqosim/internal/des"
	"ctqosim/internal/span"
)

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

// Reset ends the call's exchange in place: it drops every reference the
// call holds, its delivery state included, and zeroes its counters,
// keeping only its callbacks, Done and the retransmission callback bound
// on its first drop. A pooled call is reset where it lies, so it binds
// that callback once, not once per reuse.
func (c *Call) Reset() {
	c.Payload, c.Trace, c.transport, c.dst = nil, nil, nil, nil
	c.FirstSent, c.Attempts, c.SpanID, c.retransGap = 0, 0, 0, 0
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

	// RTO is the retransmission timeout.
	RTO time.Duration
	// MaxAttempts bounds total delivery attempts.
	MaxAttempts int
	// Backoff, when true, doubles the timeout after every drop
	// (3s, 6s, 12s…) instead of the fixed timer. The paper's clusters at
	// exactly 3/6/9s correspond to the fixed timer; the exponential
	// variant exists for the ablation bench.
	Backoff bool
	// KeepDrops, when true, records every drop for Drops, the input of
	// the CTQO analysis. Off, the transport keeps no per-drop state.
	KeepDrops bool

	hops  []hop
	drops []Drop
}

// hop is one destination and its counters. A transport has a handful of
// destinations (three in a 3-tier system), so Send finds its counters by
// scanning for the destination's identity instead of hashing its name.
// Destinations that share a name share counters, which the readers
// report under the name.
type hop struct {
	dst   Admission
	name  string
	stats *HopStats
}

// NewTransport creates a transport with the paper's kernel, RHEL6, applied.
func NewTransport(sim *des.Simulator) *Transport {
	t := &Transport{sim: sim}
	RHEL6.Apply(t)
	return t
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
	s := t.hop(dst)
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

	if call.Attempts >= t.MaxAttempts {
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
	if s := t.named(dst); s != nil {
		return *s
	}
	return HopStats{}
}

// Destinations returns the names of all destinations with recorded
// traffic, sorted so downstream reports are deterministic.
func (t *Transport) Destinations() []string {
	names := make([]string, 0, len(t.hops))
	for _, h := range t.hops {
		if !slices.Contains(names, h.name) {
			names = append(names, h.name)
		}
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
	for _, name := range t.Destinations() {
		total += t.named(name).Dropped
	}
	return total
}

// named returns the counters of the destinations called name, nil if
// none has had traffic.
func (t *Transport) named(name string) *HopStats {
	for _, h := range t.hops {
		if h.name == name {
			return h.stats
		}
	}
	return nil
}

// hop returns dst's counters, creating them on its first traffic.
// Destinations are told apart by identity, so an Admission must be
// comparable (pointers are).
//
//lint:hotpath
func (t *Transport) hop(dst Admission) *HopStats {
	for _, h := range t.hops {
		if h.dst == dst {
			return h.stats
		}
	}
	name := dst.Name()
	s := t.named(name)
	if s == nil {
		s = &HopStats{} //lint:allow hotpath one accumulator per destination, first traffic only
	}
	t.hops = append(t.hops, hop{dst: dst, name: name, stats: s}) //lint:allow hotpath one entry per destination, first traffic only
	return s
}

// timeout returns the wait before the next attempt, given the number of
// attempts already made.
//
//lint:hotpath
func (t *Transport) timeout(attempts int) time.Duration {
	rto := t.RTO
	if !t.Backoff {
		return rto
	}
	for i := 1; i < attempts; i++ {
		rto *= 2
	}
	return rto
}
