package workload

import (
	"time"

	"ctqosim/internal/des"
	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
)

// Frontend is where generators send requests: the system's web tier plus
// the transport that carries client packets (and retransmits their drops).
type Frontend struct {
	// Transport carries client→web packets.
	Transport *simnet.Transport
	// Target is the web tier's admission.
	Target simnet.Admission
}

// Sender is the send path every generator shares. Each request rides in
// a recycled call that holds it by value, from the send until its sink
// has recorded it: when the call ends, the sender stamps the request's
// completion, marks it failed if it failed at any tier, records it to
// the sink and puts the call back on its free list. The list is the
// sender's own, so it needs no lock (a run is one goroutine) and GC
// never empties it. The open-loop generators, Batch and
// burst.Generator, send untraced; the closed loop is the one traced
// generator.
type Sender struct {
	sim    *des.Simulator
	front  Frontend
	sink   Sink
	tracer *span.Tracer // the closed loop's; nil on the open loops
	free   *clientCall  // released calls, reused by the next send

	nextID    uint64
	sent      int64
	completed int64
	failed    int64
}

// NewSender returns a sender of untraced requests into front, recording
// each to sink, which may be nil.
func NewSender(sim *des.Simulator, front Frontend, sink Sink) *Sender {
	return &Sender{sim: sim, front: front, sink: sink}
}

// Sent returns the number of requests sent so far.
func (s *Sender) Sent() int64 { return s.sent }

// Send sends one open-loop request of class.
//
//lint:hotpath
func (s *Sender) Send(class Class) { s.send(class, nil, nil) }

// clientCall is a request on the wire: the call, the request it
// carries and, on a closed loop, the client waiting for it to end. Its
// done callback is bound once, when the call is created.
type clientCall struct {
	simnet.Call
	req   Request
	out   *Sender
	loop  *ClosedLoop // the client's loop; nil on an open loop
	cycle func()      // the client's think cycle, scheduled when the call ends
	next  *clientCall // the sender's next free call while this one is free
}

// newClientCall creates a call with its callback bound.
func newClientCall() *clientCall {
	cc := &clientCall{}
	cc.bindCallbacks()
	return cc
}

// bindCallbacks binds the call's done callback, once for its lifetime:
// done keeps it.
func (cc *clientCall) bindCallbacks() { cc.Done = cc.done }

// send numbers a request of class and sends it in a recycled call,
// opening its trace if the sender has a tracer. A closed-loop request
// carries its loop and its client's think cycle; an open-loop one
// carries neither.
//
//lint:hotpath
func (s *Sender) send(class Class, loop *ClosedLoop, cycle func()) {
	cc := s.free
	if cc == nil {
		cc = newClientCall() //lint:allow hotpath pool warm-up: one call per concurrently outstanding request, recycled at its reply
	}
	s.free, cc.next = cc.next, nil
	cc.req = Request{ID: s.nextID, Class: class, Submitted: s.sim.Now()}
	s.nextID++
	s.sent++
	cc.out, cc.loop, cc.cycle = s, loop, cycle
	cc.Payload, cc.SpanID = &cc.req, span.RootID
	cc.Trace = s.tracer.StartRequest(cc.req.ID, class.Name)
	s.front.Transport.Send(s.front.Target, &cc.Call)
}

// done ends the request, failed at failedAt unless it is empty: it
// finishes the request's trace and records the request, then puts the
// call back on the free list and, on a closed loop, starts the client's
// next think. The sink does not keep the request, so recycling the call
// after recording it is safe.
//
//lint:hotpath
func (cc *clientCall) done(failedAt string) {
	s, loop, cycle := cc.out, cc.loop, cc.cycle
	cc.req.Completed = s.sim.Now()
	if failedAt != "" {
		cc.req.Failed = true
		s.failed++
	}
	s.completed++
	s.tracer.Finish(cc.Trace)
	if s.sink != nil {
		s.sink.Record(&cc.req)
	}
	cc.Call.Reset()
	cc.out, cc.loop, cc.cycle = nil, nil, nil
	cc.next, s.free = s.free, cc
	if loop != nil {
		s.sim.Schedule(loop.think(), cycle)
	}
}

// BurstSpec adds burstiness to a closed-loop population, approximating the
// index-of-dispersion knob of Mi et al. (ICAC'09): time is divided into
// epochs; a rare "hot" epoch compresses think times by Index, a normal
// epoch stretches them slightly to preserve the long-run average rate.
type BurstSpec struct {
	// Index is the burstiness index; 1 (or less) means no modulation.
	Index float64
	// Epoch is the modulation period; zero defaults to 1s.
	Epoch time.Duration
}

const defaultBurstEpoch = time.Second

// ClosedLoopConfig parameterizes a RUBBoS-style closed-loop population.
type ClosedLoopConfig struct {
	// Clients is the population size (the paper's "WL n").
	Clients int
	// ThinkTime is the mean exponential think time; zero defaults to
	// DefaultThinkTime.
	ThinkTime time.Duration
	// Mix is the interaction mix; nil defaults to DefaultMix.
	Mix *Mix
	// Burst, if non-nil with Index > 1, modulates think times.
	Burst *BurstSpec
	// Sink receives every completed request; may be nil.
	Sink Sink
	// Tracer, if non-nil, opens a span trace per request so every tier can
	// record where the request's time went. The loop hands each trace to
	// Tracer.Finish when its request ends, and keeps it nowhere else.
	Tracer *span.Tracer
}

// ClosedLoop is a population of clients that think, send, and wait.
type ClosedLoop struct {
	sim *des.Simulator
	out Sender
	cfg ClosedLoopConfig

	hot     bool
	started bool
	stopped bool
}

// NewClosedLoop creates a closed-loop generator; call Start to begin.
func NewClosedLoop(sim *des.Simulator, front Frontend, cfg ClosedLoopConfig) *ClosedLoop {
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = DefaultThinkTime
	}
	if cfg.Mix == nil {
		cfg.Mix = DefaultMix()
	}
	return &ClosedLoop{
		sim: sim,
		out: Sender{sim: sim, front: front, sink: cfg.Sink, tracer: cfg.Tracer},
		cfg: cfg,
	}
}

// Start launches the client population. Each client begins with a random
// initial think so arrivals are spread out.
func (c *ClosedLoop) Start() {
	if c.started {
		return
	}
	c.started = true
	for i := 0; i < c.cfg.Clients; i++ {
		// The client's think cycle is bound once, so a think allocates
		// no closure.
		var cycle func()
		cycle = func() { c.clientLoop(cycle) }
		c.sim.Schedule(c.think(), cycle)
	}
	if c.cfg.Burst != nil && c.cfg.Burst.Index > 1 {
		epoch := c.cfg.Burst.Epoch
		if epoch <= 0 {
			epoch = defaultBurstEpoch
		}
		des.NewTicker(c.sim, epoch, func(time.Duration) {
			// Hot with probability 1/(2·Index): rare, intense epochs.
			c.hot = c.sim.Rand().Float64() < 1/(2*c.cfg.Burst.Index)
		})
	}
}

// Stop prevents clients from sending further requests after their current
// cycle.
func (c *ClosedLoop) Stop() { c.stopped = true }

// SetMix swaps the interaction mix — the scenario engine's shift_mix
// event. Clients draw from the mix per request, so the change takes
// effect at each client's next cycle. A nil mix is ignored.
func (c *ClosedLoop) SetMix(m *Mix) {
	if m == nil {
		return
	}
	c.cfg.Mix = m
}

// Sent returns the number of requests sent so far.
func (c *ClosedLoop) Sent() int64 { return c.out.sent }

// Completed returns the number of requests finished (including failures).
func (c *ClosedLoop) Completed() int64 { return c.out.completed }

// Failed returns the number of requests that gave up.
func (c *ClosedLoop) Failed() int64 { return c.out.failed }

func (c *ClosedLoop) clientLoop(cycle func()) {
	if c.stopped {
		return
	}
	c.out.send(c.cfg.Mix.Pick(c.sim.Rand()), c, cycle)
}

// think draws the next think time, applying burst modulation.
func (c *ClosedLoop) think() time.Duration {
	mean := c.cfg.ThinkTime
	if c.cfg.Burst != nil && c.cfg.Burst.Index > 1 {
		if c.hot {
			mean = time.Duration(float64(mean) / c.cfg.Burst.Index)
		} else {
			// Stretch cold epochs to keep the long-run rate near nominal:
			// with p = 1/(2I) hot epochs at I× rate, cold epochs run at
			// (1 - p·I)/(1 - p) = ~0.5× rate.
			p := 1 / (2 * c.cfg.Burst.Index)
			cold := (1 - p*c.cfg.Burst.Index) / (1 - p)
			mean = time.Duration(float64(mean) / cold)
		}
	}
	return time.Duration(c.sim.Rand().ExpFloat64() * float64(mean))
}

// BatchConfig parameterizes the paper's modified SysBursty generator: a
// fixed batch of identical requests at fixed intervals, creating
// reproducible millibottlenecks ("a batch of 400 ViewStory requests
// arriving every 15 seconds", Section V-B).
type BatchConfig struct {
	// Size is the number of requests per batch.
	Size int
	// Interval is the batch period.
	Interval time.Duration
	// Offset delays the first batch; zero fires the first batch after one
	// full interval.
	Offset time.Duration
	// Class is the interaction sent; zero value defaults to ViewStory.
	Class Class
	// Sink receives completed requests; may be nil.
	Sink Sink
}

// Batch emits deterministic request bursts.
type Batch struct {
	sim    *des.Simulator
	out    Sender
	cfg    BatchConfig
	ticker *des.Ticker
}

// NewBatch creates a batch generator; call Start to begin.
func NewBatch(sim *des.Simulator, front Frontend, cfg BatchConfig) *Batch {
	if cfg.Class.Name == "" {
		cfg.Class = ClassViewStory
	}
	if cfg.Size < 1 {
		cfg.Size = 1
	}
	return &Batch{sim: sim, out: Sender{sim: sim, front: front, sink: cfg.Sink}, cfg: cfg}
}

// Start schedules the periodic batches.
func (b *Batch) Start() {
	if b.ticker != nil {
		return
	}
	fire := func(time.Duration) { b.fire() }
	if b.cfg.Offset > 0 {
		b.sim.Schedule(b.cfg.Offset, func() {
			b.fire()
			b.ticker = des.NewTicker(b.sim, b.cfg.Interval, fire)
		})
		return
	}
	b.ticker = des.NewTicker(b.sim, b.cfg.Interval, fire)
}

// Stop cancels future batches.
func (b *Batch) Stop() {
	if b.ticker != nil {
		b.ticker.Stop()
	}
}

// Sent returns the number of requests emitted.
func (b *Batch) Sent() int64 { return b.out.sent }

func (b *Batch) fire() {
	for i := 0; i < b.cfg.Size; i++ {
		b.out.Send(b.cfg.Class)
	}
}
