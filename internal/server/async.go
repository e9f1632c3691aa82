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
	ready    fifo[*task]
	stats    Stats
	free     *task // released tasks, reused by the next admission

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
	t := a.free
	if t == nil {
		t = newTask() //lint:allow hotpath pool warm-up: one task per admitted, unfinished request, recycled when it replies
	}
	a.free, t.next = t.next, nil
	t.srv, t.call, t.transport = a, call, a.transport
	t.prog = a.plan(call.Payload, t.prog)
	t.enqueue()
	return true
}

// dispatch hands ready tasks to free workers, oldest first, ending each
// one's queue-wait span as a worker picks it up.
//
//lint:hotpath
func (a *AsyncServer) dispatch() {
	for a.busy < a.cfg.Workers && a.ready.len() > 0 {
		t := a.ready.pop()
		a.busy++
		t.call.Trace.End(t.wait)
		t.runStage()
	}
}

// release frees the worker that ran the current CPU burst.
//
//lint:hotpath
func (a *AsyncServer) release() {
	a.busy--
	// enqueue dispatches at once when a worker is free, so a task is
	// still ready only if every worker was busy when it was pushed; only
	// then has the released worker work to pick up. Dispatch is deferred
	// to a fresh event so it does so after the current call stack
	// unwinds.
	if a.ready.len() > 0 {
		a.sim.Schedule(0, a.deferredDispatch)
	}
}

// task is one request's stay at an AsyncServer, from admission to
// replying upstream. It runs the request's program stage by stage, each
// stage a trip through the ready queue to a worker for its CPU burst,
// then the optional downstream call with the worker released. Its
// CPU-done, send and done callbacks are bound once, when the task is
// created, so admissions, bursts, downstream calls and failures allocate
// nothing. A released task is cleared and kept on its server's free
// list, as a visit is, so the list holds no request, span tree or
// simulation state between uses.
type task struct {
	srv   *AsyncServer
	prog  Program // the request's program, planned into this buffer
	stage int     // the stage queued or running now
	svc   span.ID // the running CPU burst's service span
	wait  span.ID // the queue-wait span while the task is ready

	downcall // the upstream call and the current stage's downstream call

	cpuDone func() // t.onCPUDone
	next    *task  // the server's next free task while this one is free
}

// newTask creates a task with its callbacks bound.
func newTask() *task {
	t := &task{}
	t.bindCallbacks()
	return t
}

// bindCallbacks binds the task's CPU-done, send and done callbacks, once
// for its lifetime: release keeps them.
func (t *task) bindCallbacks() {
	t.cpuDone = t.onCPUDone
	t.bind(t.onDone)
}

// enqueue puts the task's current stage in the ready queue and dispatches
// if a worker is free. A queue-wait span covers the time until a worker
// picks it up: admissions and continuations alike, so a request that
// bounces between bursts accumulates every wait. Continuations are never
// dropped — LiteQDepth bounds admissions, not continuations.
//
//lint:hotpath
func (t *task) enqueue() {
	t.wait = t.call.Trace.Start(span.KindQueueWait, t.srv.cfg.Name, t.call.SpanID)
	t.srv.ready.push(t)
	t.srv.dispatch()
}

// runStage submits the current stage's CPU burst on the worker that
// dispatched it, or finishes the task after the last stage.
//
//lint:hotpath
func (t *task) runStage() {
	a := t.srv
	if t.stage >= len(t.prog) {
		a.release()
		t.finish("")
		return
	}
	// One service span per CPU burst: an async request's service time is
	// the sum of its bursts, with the waits between them showing up as
	// queue-wait and downstream spans instead.
	t.svc = t.call.Trace.Start(span.KindService, a.cfg.Name, t.call.SpanID)
	a.vm.Submit(a.inflate(t.prog[t.stage].CPU), t.cpuDone)
}

// onCPUDone ends the stage's CPU burst and frees its worker: issue the
// stage's downstream call, or queue the next stage.
//
//lint:hotpath
func (t *task) onCPUDone() {
	t.call.Trace.End(t.svc)
	t.srv.release()
	d := t.prog[t.stage].Call
	if d == nil {
		t.stage++
		t.enqueue()
		return
	}
	// The worker is released before the call is issued; the reply arrives
	// as a continuation. This is the doGet/eventHandler split of the
	// paper's Fig. 14.
	t.start(d, t.call.SpanID)
}

// onDone ends the downstream call: a failure, whether the call gave up
// or was failed further down, fails the request; otherwise it queues the
// next stage.
//
//lint:hotpath
func (t *task) onDone(failedAt string) {
	t.settle()
	if failedAt != "" {
		t.finish(failedAt)
		return
	}
	t.stage++
	t.enqueue()
}

// finish replies upstream, failed at failedAt unless it is empty. The
// task goes back on the free list first, so the next admission can
// reuse it.
//
//lint:hotpath
func (t *task) finish(failedAt string) {
	a, call := t.srv, t.call
	if failedAt != "" {
		a.stats.Failed++
	} else {
		a.stats.Completed++
	}
	a.inFlight--
	t.release()
	replyNow(call, failedAt)
}

// release clears everything the task references, keeping its bound
// callbacks and program buffer, and pushes it on its server's free list.
//
//lint:hotpath
func (t *task) release() {
	a := t.srv
	clear(t.prog)
	*t = task{
		prog:     t.prog[:0],
		downcall: t.downcall.cleared(),
		cpuDone:  t.cpuDone,
		next:     a.free,
	}
	a.free = t
}

func (a *AsyncServer) inflate(d time.Duration) time.Duration {
	if a.cfg.OverheadPerThread <= 0 {
		return d
	}
	factor := 1 + a.cfg.OverheadPerThread*float64(a.busy)
	return time.Duration(float64(d) * factor)
}
