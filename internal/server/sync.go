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
	// queue longer than this: they are answered with a Failure instead of
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
	queue      []*queuedCall
	stats      Stats
	shed       int64
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
func (s *SyncServer) Depth() int { return s.busy + len(s.queue) }

// InService implements Server.
func (s *SyncServer) InService() int { return s.busy }

// MaxSysQDepth implements Server. It reflects the current thread count, so
// it rises when the spare process has spawned.
func (s *SyncServer) MaxSysQDepth() int { return s.threadCap() + s.cfg.Backlog }

// Queued returns the number of requests waiting in the accept queue.
func (s *SyncServer) Queued() int { return len(s.queue) }

// TryAccept implements simnet.Admission: admit to a free thread, else to
// the accept queue, else drop.
func (s *SyncServer) TryAccept(call *simnet.Call) bool {
	if s.busy < s.threadCap() {
		s.stats.Accepted++
		s.startOnThread(call)
		return true
	}
	s.maybeArmSpare()
	if len(s.queue) < s.cfg.Backlog {
		s.stats.Accepted++
		entry := &queuedCall{
			call: call,
			wait: call.Trace.Start(span.KindQueueWait, s.cfg.Name, call.SpanID),
		}
		if s.cfg.QueueTimeout > 0 {
			entry.timer = s.sim.Schedule(s.cfg.QueueTimeout, func() {
				s.shedEntry(entry)
			})
		}
		s.queue = append(s.queue, entry)
		return true
	}
	return false
}

// Shed returns the number of requests dropped from the accept queue by
// the QueueTimeout policy.
func (s *SyncServer) Shed() int64 { return s.shed }

// shedEntry removes a timed-out entry from the queue and fails it fast.
func (s *SyncServer) shedEntry(entry *queuedCall) {
	for i, q := range s.queue {
		if q != entry {
			continue
		}
		copy(s.queue[i:], s.queue[i+1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		s.shed++
		s.stats.Failed++
		entry.call.Trace.End(entry.wait)
		entry.call.Trace.Annotate(entry.wait, "shed by queue timeout")
		replyNow(entry.call, Failure{Server: s.cfg.Name})
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

func (s *SyncServer) startOnThread(call *simnet.Call) {
	s.busy++
	prog := s.plan(call.Payload)
	// The service span covers the whole thread-held visit; downstream and
	// retransmission children subtract out of its exclusive time.
	svc := call.Trace.Start(span.KindService, s.cfg.Name, call.SpanID)
	s.runStage(call, svc, prog, 0)
}

// runStage executes stage i of the program: CPU burst, then the optional
// downstream call, then the next stage. The thread (busy slot) is held
// throughout, including downstream retransmission waits.
func (s *SyncServer) runStage(call *simnet.Call, svc span.ID, prog Program, i int) {
	if i >= len(prog) {
		s.finish(call, svc, call.Payload, false)
		return
	}
	stage := prog[i]
	demand := s.inflate(stage.CPU)
	s.vm.Submit(demand, func() {
		if stage.Call == nil {
			s.runStage(call, svc, prog, i+1)
			return
		}
		s.callDownstream(call, svc, prog, i, stage.Call)
	})
}

func (s *SyncServer) callDownstream(call *simnet.Call, svc span.ID, prog Program, i int, d *Downstream) {
	ds := call.Trace.Start(span.KindDownstream, d.Dest.Name(), svc)
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
				s.finish(call, svc, f, true)
				return
			}
			s.runStage(call, svc, prog, i+1)
		}
		sub.OnGiveUp = func() {
			if d.Pool != nil {
				d.Pool.Release()
			}
			call.Trace.End(ds)
			s.finish(call, svc, Failure{Server: d.Dest.Name()}, true)
		}
		s.transport.Send(d.Dest, sub)
	}
	if d.Pool != nil {
		// The thread waits (still held) until a connection frees up.
		poolWait = call.Trace.Start(span.KindPoolWait, d.Dest.Name(), ds)
		d.Pool.Acquire(send)
		return
	}
	send()
}

// finish replies upstream, releases the thread and pulls the next queued
// request onto it.
func (s *SyncServer) finish(call *simnet.Call, svc span.ID, payload any, failed bool) {
	if failed {
		s.stats.Failed++
	} else {
		s.stats.Completed++
	}
	s.busy--
	call.Trace.End(svc)
	s.drainQueue()
	replyNow(call, payload)
}

func (s *SyncServer) drainQueue() {
	for s.busy < s.threadCap() && len(s.queue) > 0 {
		next := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
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
