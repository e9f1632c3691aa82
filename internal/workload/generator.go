package workload

import (
	"sync"
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

// Submit sends req to the web tier in an untraced call of its own (the
// closed loop is the one traced generator). When the call ends, Submit
// stamps req's completion, marks it failed if it failed at any tier and
// records it to sink, which may be nil.
func (f Frontend) Submit(sim *des.Simulator, req *Request, sink Sink) {
	call := &simnet.Call{Payload: req}
	call.Done = func(failedAt string) {
		req.Completed = sim.Now()
		req.Failed = failedAt != ""
		if sink != nil {
			sink.Record(req)
		}
	}
	f.Transport.Send(f.Target, call)
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
	sim   *des.Simulator
	front Frontend
	cfg   ClosedLoopConfig

	hot     bool
	nextID  uint64
	started bool
	stopped bool

	sent      int64
	completed int64
	failed    int64
}

// NewClosedLoop creates a closed-loop generator; call Start to begin.
func NewClosedLoop(sim *des.Simulator, front Frontend, cfg ClosedLoopConfig) *ClosedLoop {
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = DefaultThinkTime
	}
	if cfg.Mix == nil {
		cfg.Mix = DefaultMix()
	}
	return &ClosedLoop{sim: sim, front: front, cfg: cfg}
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
func (c *ClosedLoop) Sent() int64 { return c.sent }

// Completed returns the number of requests finished (including failures).
func (c *ClosedLoop) Completed() int64 { return c.completed }

// Failed returns the number of requests that gave up.
func (c *ClosedLoop) Failed() int64 { return c.failed }

func (c *ClosedLoop) clientLoop(cycle func()) {
	if c.stopped {
		return
	}
	class := c.cfg.Mix.Pick(c.sim.Rand())
	// The Request is the one allocation per request: sinks may keep it.
	req := &Request{
		ID:        c.nextID,
		Class:     class,
		Submitted: c.sim.Now(),
	}
	c.nextID++
	c.sent++
	c.send(cycle, req)
}

// clientCalls recycles clientCalls across loops and runs. A call is
// cleared before it is put back, so the pool holds no request, span tree
// or simulation state between uses.
var clientCalls sync.Pool

// clientCall is a closed-loop request on the wire: the call plus the
// client waiting for it to end. Its done callback is bound once, when the
// call is created.
type clientCall struct {
	simnet.Call
	loop  *ClosedLoop
	cycle func() // the client's think cycle, scheduled when the call ends
	req   *Request
}

// newClientCall creates a call with its callback bound.
func newClientCall() *clientCall {
	cc := &clientCall{}
	cc.Done = cc.done
	return cc
}

// send issues req for the client in a recycled call, which carries the
// request's trace.
//
//lint:hotpath
func (c *ClosedLoop) send(cycle func(), req *Request) {
	cc, ok := clientCalls.Get().(*clientCall)
	if !ok {
		cc = newClientCall() //lint:allow hotpath pool warm-up: one call per concurrently outstanding request, recycled at its reply
	}
	cc.loop, cc.cycle, cc.req = c, cycle, req
	cc.Payload, cc.SpanID = req, span.RootID
	cc.Trace = c.cfg.Tracer.StartRequest(req.ID, req.Class.Name)
	c.front.Transport.Send(c.front.Target, &cc.Call)
}

// done ends the request, failed at failedAt unless it is empty: it puts
// the call back in the pool, finishes the request's trace, records the
// request and starts the client's next think.
//
//lint:hotpath
func (cc *clientCall) done(failedAt string) {
	c, cycle, req, trace := cc.loop, cc.cycle, cc.req, cc.Trace
	*cc = clientCall{Call: cc.Call.Cleared()}
	clientCalls.Put(cc)

	req.Completed = c.sim.Now()
	if failedAt != "" {
		req.Failed = true
		c.failed++
	}
	c.completed++
	c.cfg.Tracer.Finish(trace)
	c.record(req)
	c.sim.Schedule(c.think(), cycle)
}

func (c *ClosedLoop) record(req *Request) {
	if c.cfg.Sink != nil {
		c.cfg.Sink.Record(req)
	}
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
	front  Frontend
	cfg    BatchConfig
	ticker *des.Ticker
	nextID uint64
	sent   int64
}

// NewBatch creates a batch generator; call Start to begin.
func NewBatch(sim *des.Simulator, front Frontend, cfg BatchConfig) *Batch {
	if cfg.Class.Name == "" {
		cfg.Class = ClassViewStory
	}
	if cfg.Size < 1 {
		cfg.Size = 1
	}
	return &Batch{sim: sim, front: front, cfg: cfg}
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
func (b *Batch) Sent() int64 { return b.sent }

func (b *Batch) fire() {
	for i := 0; i < b.cfg.Size; i++ {
		req := &Request{ID: b.nextID, Class: b.cfg.Class, Submitted: b.sim.Now()}
		b.nextID++
		b.sent++
		b.front.Submit(b.sim, req, b.cfg.Sink)
	}
}
