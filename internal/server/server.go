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
	// reply arrives (the JDBC connection pool between Tomcat and MySQL).
	Pool *simnet.ConnPool
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
	Failed    int64 // completed with a failed downstream call
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

// Failure is delivered as the reply payload when a request could not be
// completed because a downstream call exhausted its retransmissions.
type Failure struct {
	// Server is the downstream destination that never admitted the call.
	Server string
}

// replyNow invokes a call's reply callback if present.
func replyNow(call *simnet.Call, payload any) {
	if call.OnReply != nil {
		call.OnReply(payload)
	}
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

func (q *fifo[T]) push(x T) {
	q.items = append(q.items, x) //lint:allow allocs amortized: the queue grows to its peak length, then is reused
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
