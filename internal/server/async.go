package server

import (
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
)

// AsyncConfig parameterizes an event-driven server.
type AsyncConfig struct {
	// Name identifies the server in statistics and traces.
	Name string
	// Workers is the number of event-loop threads executing CPU bursts
	// (e.g. a handful of Nginx workers, or InnoDB's thread concurrency of
	// 8 for XMySQL).
	Workers int
	// LiteQDepth bounds the lightweight queue of admitted-but-unfinished
	// requests: 65535 for Nginx/XTomcat (all ephemeral ports), 2000 for
	// XMySQL's InnoDB wait queue.
	LiteQDepth int
	// OverheadPerThread inflates CPU demand with the number of busy
	// workers. With a handful of workers the effect is negligible — that
	// asymmetry versus thousands of sync threads is the point of Fig. 12.
	OverheadPerThread float64
}

// AsyncServer is an event-driven server with continuation-passing
// downstream calls.
type AsyncServer struct {
	sim       *des.Simulator
	vm        *cpu.VM
	transport *simnet.Transport
	plan      PlanFunc
	cfg       AsyncConfig

	busy     int // workers executing a CPU burst
	inFlight int // admitted requests not yet replied
	ready    fifo[func()]
	stats    Stats

	deferredDispatch func() // a.dispatch, bound once so release allocates no closure
}

var _ Server = (*AsyncServer)(nil)

// NewAsync creates an asynchronous server running on vm.
func NewAsync(sim *des.Simulator, vm *cpu.VM, transport *simnet.Transport, plan PlanFunc, cfg AsyncConfig) *AsyncServer {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.LiteQDepth < 1 {
		cfg.LiteQDepth = 1
	}
	a := &AsyncServer{sim: sim, vm: vm, transport: transport, plan: plan, cfg: cfg}
	a.deferredDispatch = a.dispatch
	return a
}

// Name implements simnet.Admission.
func (a *AsyncServer) Name() string { return a.cfg.Name }

// VM implements Server.
func (a *AsyncServer) VM() *cpu.VM { return a.vm }

// Stats implements Server.
func (a *AsyncServer) Stats() Stats { return a.stats }

// Depth implements Server: every admitted, unfinished request is held in
// the lightweight queue (possibly parked waiting for a downstream reply).
func (a *AsyncServer) Depth() int { return a.inFlight }

// InService implements Server.
func (a *AsyncServer) InService() int { return a.busy }

// MaxSysQDepth implements Server.
func (a *AsyncServer) MaxSysQDepth() int { return a.cfg.LiteQDepth }

// Ready returns the number of runnable work items waiting for a worker.
func (a *AsyncServer) Ready() int { return a.ready.len() }

// TryAccept implements simnet.Admission: admit unless the lightweight
// queue is exhausted.
func (a *AsyncServer) TryAccept(call *simnet.Call) bool {
	if a.inFlight >= a.cfg.LiteQDepth {
		return false
	}
	a.inFlight++
	a.stats.Accepted++
	prog := a.plan(call.Payload, nil)
	a.enqueueWait(call, func() { a.runStage(call, prog, 0) })
	return true
}

// enqueueWait is enqueue plus a queue-wait span covering the time the work
// item sits in the ready queue before a worker picks it up. Continuation
// hand-offs go through here too, so a request that bounces between bursts
// accumulates every wait. With tracing off the span ID is zero and the
// item is enqueued untouched — identical dynamics either way.
func (a *AsyncServer) enqueueWait(call *simnet.Call, item func()) {
	wait := call.Trace.Start(span.KindQueueWait, a.cfg.Name, call.SpanID)
	if wait == 0 {
		a.enqueue(item)
		return
	}
	a.enqueue(func() {
		call.Trace.End(wait)
		item()
	})
}

// enqueue adds a runnable work item and dispatches if a worker is free.
// Continuations (downstream replies) re-enter through here as well; they
// are never dropped — LiteQDepth bounds admissions, not continuations.
func (a *AsyncServer) enqueue(item func()) {
	a.ready.push(item)
	a.dispatch()
}

func (a *AsyncServer) dispatch() {
	for a.busy < a.cfg.Workers && a.ready.len() > 0 {
		item := a.ready.pop()
		a.busy++
		item()
	}
}

// runStage executes stage i: the worker is held only for the CPU burst;
// a downstream call parks the request and frees the worker.
func (a *AsyncServer) runStage(call *simnet.Call, prog Program, i int) {
	if i >= len(prog) {
		a.release()
		a.finish(call, call.Payload, false)
		return
	}
	stage := prog[i]
	// One service span per CPU burst: an async request's service time is
	// the sum of its bursts, with the waits between them showing up as
	// queue-wait and downstream spans instead.
	svc := call.Trace.Start(span.KindService, a.cfg.Name, call.SpanID)
	a.vm.Submit(a.inflate(stage.CPU), func() {
		call.Trace.End(svc)
		if stage.Call == nil {
			a.release()
			a.enqueueWait(call, func() { a.runStage(call, prog, i+1) })
			return
		}
		a.callDownstream(call, prog, i, stage.Call)
	})
}

func (a *AsyncServer) callDownstream(call *simnet.Call, prog Program, i int, d *Downstream) {
	ds := call.Trace.Start(span.KindDownstream, d.Dest.Name(), call.SpanID)
	var poolWait span.ID
	send := func() {
		call.Trace.End(poolWait)
		sub := &simnet.Call{Payload: call.Payload, Trace: call.Trace, SpanID: ds}
		sub.OnReply = func(reply any) {
			if d.Pool != nil {
				d.Pool.Release()
			}
			call.Trace.End(ds)
			if f, ok := reply.(Failure); ok {
				a.finish(call, f, true)
				return
			}
			a.enqueueWait(call, func() { a.runStage(call, prog, i+1) })
		}
		sub.OnGiveUp = func() {
			if d.Pool != nil {
				d.Pool.Release()
			}
			call.Trace.End(ds)
			a.finish(call, Failure{Server: d.Dest.Name()}, true)
		}
		a.transport.Send(d.Dest, sub)
	}
	// The worker is released before the call is issued; the reply arrives
	// as a continuation. This is the doGet/eventHandler split of the
	// paper's Fig. 14.
	a.release()
	if d.Pool != nil {
		poolWait = call.Trace.Start(span.KindPoolWait, d.Dest.Name(), ds)
		d.Pool.Acquire(send)
		return
	}
	send()
}

func (a *AsyncServer) release() {
	a.busy--
	// Dispatch is deferred to a fresh event so the released worker picks
	// up queued work after the current call stack unwinds.
	a.sim.Schedule(0, a.deferredDispatch)
}

func (a *AsyncServer) finish(call *simnet.Call, payload any, failed bool) {
	if failed {
		a.stats.Failed++
	} else {
		a.stats.Completed++
	}
	a.inFlight--
	replyNow(call, payload)
}

func (a *AsyncServer) inflate(d time.Duration) time.Duration {
	if a.cfg.OverheadPerThread <= 0 {
		return d
	}
	factor := 1 + a.cfg.OverheadPerThread*float64(a.busy)
	return time.Duration(float64(d) * factor)
}
