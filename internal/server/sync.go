package server

import (
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
)

// SyncConfig parameterizes a synchronous RPC server.
type SyncConfig struct {
	// Name identifies the server in statistics and traces.
	Name string
	// Threads is the request thread pool size (Apache 150, Tomcat 165,
	// MySQL 100 in the paper).
	Threads int
	// Backlog is the TCP accept-queue capacity (128 in the paper's
	// kernel). Threads+Backlog is the MaxSysQDepth.
	Backlog int
	// SpareThreads, if positive, models Apache's spare-process escalation:
	// after the pool stays saturated for SpareAfter, a second process adds
	// SpareThreads more threads (the paper's Fig. 3b second plateau at
	// 428 = 278 + 150).
	SpareThreads int
	// SpareAfter is the sustained-saturation delay before escalation.
	// Zero with SpareThreads>0 defaults to 10 seconds.
	SpareAfter time.Duration
	// OverheadPerThread inflates every CPU demand by
	// (1 + OverheadPerThread × busyThreads), modeling context-switch and
	// scheduling overhead at high thread counts (the paper's Fig. 12).
	OverheadPerThread float64
	// QueueTimeout, if positive, sheds requests that wait in the accept
	// queue longer than this: they fail at this server instead of
	// holding the queue — the fail-fast alternative to the paper's
	// enlarge-the-buffers discussion (Section V-E). Zero disables
	// shedding.
	QueueTimeout time.Duration
}

const defaultSpareAfter = 10 * time.Second

// SyncServer is a thread-per-request RPC server.
type SyncServer struct {
	sim       *des.Simulator
	vm        *cpu.VM
	transport *simnet.Transport
	plan      PlanFunc
	cfg       SyncConfig

	busy       int
	spareAdded bool
	spareArmed bool
	queue      fifo[queuedCall]
	stats      Stats
	shed       int64
	free       *visit // released visits, reused by the next thread taken
}

// queuedCall is an accept-queue entry with its optional shedding timer and
// its open queue-wait span.
type queuedCall struct {
	call  *simnet.Call
	timer des.Timer
	wait  span.ID
}

var _ Server = (*SyncServer)(nil)

// NewSync creates a synchronous server running on vm, planning request
// programs with plan and issuing downstream calls over transport.
func NewSync(sim *des.Simulator, vm *cpu.VM, transport *simnet.Transport, plan PlanFunc, cfg SyncConfig) *SyncServer {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Backlog < 0 {
		cfg.Backlog = 0
	}
	if cfg.SpareThreads > 0 && cfg.SpareAfter <= 0 {
		cfg.SpareAfter = defaultSpareAfter
	}
	return &SyncServer{sim: sim, vm: vm, transport: transport, plan: plan, cfg: cfg}
}

// Name implements simnet.Admission.
func (s *SyncServer) Name() string { return s.cfg.Name }

// VM implements Server.
func (s *SyncServer) VM() *cpu.VM { return s.vm }

// Stats implements Server.
func (s *SyncServer) Stats() Stats { return s.stats }

// Depth implements Server.
func (s *SyncServer) Depth() int { return s.busy + s.queue.len() }

// InService implements Server.
func (s *SyncServer) InService() int { return s.busy }

// MaxSysQDepth implements Server. It reflects the current thread count, so
// it rises when the spare process has spawned.
func (s *SyncServer) MaxSysQDepth() int { return s.threadCap() + s.cfg.Backlog }

// Queued returns the number of requests waiting in the accept queue.
func (s *SyncServer) Queued() int { return s.queue.len() }

// TryAccept implements simnet.Admission: admit to a free thread, else to
// the accept queue, else drop.
func (s *SyncServer) TryAccept(call *simnet.Call) bool {
	if s.busy < s.threadCap() {
		s.stats.Accepted++
		s.startOnThread(call)
		return true
	}
	s.maybeArmSpare()
	if s.queue.len() < s.cfg.Backlog {
		s.stats.Accepted++
		entry := queuedCall{
			call: call,
			wait: call.Trace.Start(span.KindQueueWait, s.cfg.Name, call.SpanID),
		}
		if s.cfg.QueueTimeout > 0 {
			entry.timer = s.sim.Schedule(s.cfg.QueueTimeout, func() {
				s.shedEntry(call)
			})
		}
		s.queue.push(entry)
		return true
	}
	return false
}

// Shed returns the number of requests dropped from the accept queue by
// the QueueTimeout policy.
func (s *SyncServer) Shed() int64 { return s.shed }

// shedEntry removes call's timed-out entry from the queue and fails it
// fast.
func (s *SyncServer) shedEntry(call *simnet.Call) {
	q := &s.queue
	for i := q.head; i < len(q.items); i++ {
		entry := q.items[i]
		if entry.call != call {
			continue
		}
		copy(q.items[i:], q.items[i+1:])
		q.items[len(q.items)-1] = queuedCall{}
		q.items = q.items[:len(q.items)-1]
		s.shed++
		s.stats.Failed++
		call.Trace.End(entry.wait)
		call.Trace.Annotate(entry.wait, "shed by queue timeout")
		replyNow(call, s.cfg.Name)
		return
	}
}

func (s *SyncServer) threadCap() int {
	if s.spareAdded {
		return s.cfg.Threads + s.cfg.SpareThreads
	}
	return s.cfg.Threads
}

// maybeArmSpare schedules the spare-process check the first time the pool
// saturates. If the pool is still saturated when the check fires, the spare
// threads come online and absorb the accept queue.
func (s *SyncServer) maybeArmSpare() {
	if s.cfg.SpareThreads <= 0 || s.spareAdded || s.spareArmed {
		return
	}
	s.spareArmed = true
	s.sim.Schedule(s.cfg.SpareAfter, func() {
		s.spareArmed = false
		if s.busy < s.threadCap() {
			return // pressure subsided; stay at the base pool
		}
		s.spareAdded = true
		s.drainQueue()
	})
}

// visit is one request's thread-held stay at a SyncServer, from taking a
// thread to replying upstream. It runs the request's program stage by
// stage: a CPU burst, then the optional downstream call, then the next
// stage, holding the thread throughout, including downstream
// retransmission waits. Its CPU-done, send and done callbacks are bound
// once, when the visit is created, so neither a stage nor a failure
// allocates. A released visit is cleared and kept on its server's free
// list, so the list holds no request, span tree or simulation state
// between uses.
type visit struct {
	srv   *SyncServer
	svc   span.ID // the service span, covering the whole stay
	prog  Program // the request's program, planned into this buffer
	stage int     // the stage running now

	downcall // the upstream call and the current stage's downstream call

	cpuDone func() // v.onCPUDone
	next    *visit // the server's next free visit while this one is free
}

// newVisit creates a visit with its callbacks bound.
func newVisit() *visit {
	v := &visit{}
	v.bindCallbacks()
	return v
}

// bindCallbacks binds the visit's CPU-done, send and done callbacks, once
// for its lifetime: release keeps them.
func (v *visit) bindCallbacks() {
	v.cpuDone = v.onCPUDone
	v.bind(v.onDone)
}

// startOnThread takes a thread for call and starts its visit.
func (s *SyncServer) startOnThread(call *simnet.Call) {
	s.busy++
	v := s.free
	if v == nil {
		v = newVisit() //lint:allow hotpath pool warm-up: one visit per concurrently held thread, recycled when it replies
	}
	s.free, v.next = v.next, nil
	v.srv, v.call, v.transport = s, call, s.transport
	v.prog = s.plan(call.Payload, v.prog)
	// The service span covers the whole thread-held visit; downstream and
	// retransmission children subtract out of its exclusive time.
	v.svc = call.Trace.Start(span.KindService, s.cfg.Name, call.SpanID)
	v.runStage()
}

// runStage submits the current stage's CPU burst, or finishes the visit
// after the last stage.
//
//lint:hotpath
func (v *visit) runStage() {
	if v.stage >= len(v.prog) {
		v.finish("")
		return
	}
	v.srv.vm.Submit(v.srv.inflate(v.prog[v.stage].CPU), v.cpuDone)
}

// onCPUDone ends the stage's CPU burst: issue its downstream call, or
// move on to the next stage.
//
//lint:hotpath
func (v *visit) onCPUDone() {
	d := v.prog[v.stage].Call
	if d == nil {
		v.stage++
		v.runStage()
		return
	}
	// The thread stays held while the call waits for a pool connection
	// and for the reply.
	v.start(d, v.svc)
}

// onDone ends the downstream call: a failure, whether the call gave up
// or was failed further down, fails the visit; otherwise it moves on to
// the next stage.
//
//lint:hotpath
func (v *visit) onDone(failedAt string) {
	v.settle()
	if failedAt != "" {
		v.finish(failedAt)
		return
	}
	v.stage++
	v.runStage()
}

// finish replies upstream, failed at failedAt unless it is empty,
// releases the thread and pulls the next queued request onto it. The
// visit goes back on the free list first, so the next request can reuse
// it.
//
//lint:hotpath
func (v *visit) finish(failedAt string) {
	s, call := v.srv, v.call
	if failedAt != "" {
		s.stats.Failed++
	} else {
		s.stats.Completed++
	}
	s.busy--
	call.Trace.End(v.svc)
	v.release()
	s.drainQueue()
	replyNow(call, failedAt)
}

// release clears everything the visit references, keeping its bound
// callbacks and program buffer, and pushes it on its server's free list.
//
//lint:hotpath
func (v *visit) release() {
	s := v.srv
	clear(v.prog)
	*v = visit{
		prog:     v.prog[:0],
		downcall: v.downcall.cleared(),
		cpuDone:  v.cpuDone,
		next:     s.free,
	}
	s.free = v
}

func (s *SyncServer) drainQueue() {
	for s.busy < s.threadCap() && s.queue.len() > 0 {
		next := s.queue.pop()
		s.sim.Cancel(next.timer)
		next.call.Trace.End(next.wait)
		s.startOnThread(next.call)
	}
}

// inflate applies the thread-management overhead model of Fig. 12.
func (s *SyncServer) inflate(d time.Duration) time.Duration {
	if s.cfg.OverheadPerThread <= 0 {
		return d
	}
	factor := 1 + s.cfg.OverheadPerThread*float64(s.busy)
	return time.Duration(float64(d) * factor)
}
