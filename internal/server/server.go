// Package server implements the two server architectures the paper
// compares.
//
// SyncServer models a thread-per-request RPC server (Apache worker MPM,
// Tomcat with the BIO connector, MySQL): a bounded thread pool serves
// admitted requests, a bounded accept queue (the TCP backlog) holds the
// overflow, and anything beyond threads+backlog — the paper's MaxSysQDepth —
// is a dropped packet. Crucially, a thread is held for the full duration of
// every downstream RPC, including retransmission waits, which is the
// coupling that propagates congestion upstream (upstream CTQO).
//
// AsyncServer models an event-driven server (Nginx, XTomcat, XMySQL's
// InnoDB queue): a few event-loop workers execute CPU bursts, downstream
// calls release the worker and resume as continuations, and admitted
// requests wait in a lightweight queue bounded only by LiteQDepth (e.g.
// 65535). Nothing is dropped until LiteQDepth is exceeded, which removes
// the server from the cross-tier dependency chain.
package server

import (
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
)

// Stage is one step of a request's processing at a server: a CPU burst
// followed by an optional downstream call.
type Stage struct {
	// CPU is the CPU demand consumed before the call (if any).
	CPU time.Duration
	// Call, if non-nil, is issued after the CPU burst completes.
	Call *Downstream
}

// Downstream describes a call to the next tier.
type Downstream struct {
	// Dest is the receiving server.
	Dest simnet.Admission
	// Pool, if non-nil, is acquired before sending and released when the
	// call ends (the JDBC connection pool between Tomcat and MySQL).
	Pool *ConnPool
}

// Program is the processing recipe for one request at one server.
type Program []Stage

// PlanFunc derives a Program from a request payload, appending its stages
// to buf and returning the result; a nil buf plans into a fresh slice.
// The ntier package supplies one per tier, encoding the RUBBoS
// interaction mix.
type PlanFunc func(payload any, buf Program) Program

// Stats counts a server's request outcomes.
type Stats struct {
	Accepted  int64 // admitted requests
	Completed int64 // replied successfully
	Failed    int64 // replied failed: a downstream call failed, or the request was shed
}

// Server is the interface shared by both architectures; ntier wires tiers
// against it and the metrics monitor samples it.
type Server interface {
	simnet.Admission
	// Depth is the number of requests held by the server: in service plus
	// queued. The paper's "queued requests" timelines plot this value.
	Depth() int
	// InService is the number of requests currently holding a thread or
	// worker (including sync threads blocked on downstream calls).
	InService() int
	// MaxSysQDepth is the admission bound: threads+backlog for a sync
	// server, LiteQDepth for an async one.
	MaxSysQDepth() int
	// VM returns the virtual machine the server runs on.
	VM() *cpu.VM
	// Stats returns a copy of the server's counters.
	Stats() Stats
}

// replyNow ends call upstream: failedAt is empty when the request
// completed, or names the server at which it failed.
func replyNow(call *simnet.Call, failedAt string) {
	if call.Done != nil {
		call.Done(failedAt)
	}
}

// downcall is the downstream half of a request's stay at a server, shared
// by the sync server's visits and the async server's tasks: the upstream
// call being served and the current stage's call to the next tier, made
// through the stage's connection pool if it has one and sent in a
// sub-call reused stage after stage. Its owner binds the sub-call's
// done callback, which calls settle first.
type downcall struct {
	call      *simnet.Call      // the upstream call being served
	transport *simnet.Transport // the serving server's transport

	down     *Downstream // the current stage's downstream call
	ds       span.ID     // its downstream span
	poolWait span.ID     // its connection-pool wait span
	sub      simnet.Call // the downstream call, reused stage after stage
	send     func()      // c.sendDownstream, bound once
}

// bind binds the pool's callback to sendDownstream and the sub-call's to
// the owner's done handler.
func (c *downcall) bind(onDone func(failedAt string)) {
	c.send = c.sendDownstream
	c.sub.Done = onDone
}

// start opens the downstream span under parent and sends d's call, once
// a connection is free if d has a pool.
func (c *downcall) start(d *Downstream, parent span.ID) {
	c.down = d
	c.ds = c.call.Trace.Start(span.KindDownstream, d.Dest.Name(), parent)
	c.poolWait = 0
	if d.Pool != nil {
		c.poolWait = c.call.Trace.Start(span.KindPoolWait, d.Dest.Name(), c.ds)
		d.Pool.Acquire(c.send)
		return
	}
	c.sendDownstream()
}

// sendDownstream sends the stage's downstream call in the reused
// sub-call.
//
//lint:hotpath
func (c *downcall) sendDownstream() {
	c.call.Trace.End(c.poolWait)
	c.sub.Payload, c.sub.Trace, c.sub.SpanID = c.call.Payload, c.call.Trace, c.ds
	c.sub.Attempts = 0
	c.transport.Send(c.down.Dest, &c.sub)
}

// settle releases the stage's pool connection, if any, and ends its
// downstream span: the call has ended.
func (c *downcall) settle() {
	if c.down.Pool != nil {
		c.down.Pool.Release()
	}
	c.call.Trace.End(c.ds)
}

// reset drops every reference c holds, the sub-call's delivery state
// included, and keeps its bound callbacks: send and the sub-call's
// (simnet.Call.Reset).
func (c *downcall) reset() {
	c.call, c.transport, c.down = nil, nil, nil
	c.ds, c.poolWait = 0, 0
	c.sub.Reset()
}

// fifo is a first-in, first-out queue on a slice: items[head:] are
// queued, oldest first. pop advances the head instead of shifting the
// slice, and compacts once the head passes half the slice, so a queue
// that never empties stays bounded.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) front() T { return q.items[q.head] }

func (q *fifo[T]) push(x T) {
	q.items = append(q.items, x) //lint:allow hotpath amortized: the queue grows to its peak length, then is reused
}

func (q *fifo[T]) pop() T {
	x := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return x
}
