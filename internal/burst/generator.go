package burst

import (
	"time"

	"ctqosim/internal/des"
	"ctqosim/internal/workload"
)

// Generator drives an MMPP2 arrival process into a system frontend,
// the open-loop counterpart of the paper's burst-index workloads.
type Generator struct {
	sim     *des.Simulator
	out     *workload.Sender
	process MMPP2
	mix     *workload.Mix

	hot     bool
	stopped bool
}

// NewGenerator creates an MMPP generator; call Start to begin. A nil mix
// defaults to the RUBBoS mix; sink may be nil.
func NewGenerator(sim *des.Simulator, front workload.Frontend, process MMPP2, mix *workload.Mix, sink workload.Sink) (*Generator, error) {
	if err := process.Validate(); err != nil {
		return nil, err
	}
	if mix == nil {
		mix = workload.DefaultMix()
	}
	return &Generator{
		sim: sim, out: workload.NewSender(sim, front, sink), process: process, mix: mix,
	}, nil
}

// Start begins in the cold state (hot with the stationary probability
// would also be valid; cold keeps the first burst away from warm-up).
func (g *Generator) Start() {
	g.scheduleSwitch()
	g.scheduleArrival()
}

// Stop halts arrivals and state switches.
func (g *Generator) Stop() { g.stopped = true }

// Sent returns the number of requests emitted.
func (g *Generator) Sent() int64 { return g.out.Sent() }

func (g *Generator) rate() float64 {
	if g.hot {
		return g.process.RateHot
	}
	return g.process.RateCold
}

func (g *Generator) hold() time.Duration {
	if g.hot {
		return g.process.HoldHot
	}
	return g.process.HoldCold
}

func (g *Generator) scheduleSwitch() {
	stay := time.Duration(g.sim.Rand().ExpFloat64() * float64(g.hold()))
	g.sim.Schedule(stay, func() {
		if g.stopped {
			return
		}
		g.hot = !g.hot
		g.scheduleSwitch()
	})
}

// scheduleArrival draws the next arrival at the current state's rate.
// Rate changes between arrivals are approximated by re-drawing from the
// state in effect at scheduling time; with holding times much longer than
// inter-arrival gaps the approximation error is negligible.
func (g *Generator) scheduleArrival() {
	rate := g.rate()
	var gap time.Duration
	if rate <= 0 {
		// Idle state: poll for the next state switch at the holding
		// timescale.
		gap = g.hold()
	} else {
		gap = time.Duration(g.sim.Rand().ExpFloat64() / rate * float64(time.Second))
	}
	g.sim.Schedule(gap, func() {
		if g.stopped {
			return
		}
		if g.rate() > 0 {
			g.fire()
		}
		g.scheduleArrival()
	})
}

func (g *Generator) fire() { g.out.Send(g.mix.Pick(g.sim.Rand())) }
