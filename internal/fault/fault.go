// Package fault injects the millibottlenecks studied by the paper.
//
// Section IV reproduces VLRT requests from two millibottleneck sources:
// CPU contention caused by a consolidated bursty co-tenant (Fig. 3), and
// I/O stalls caused by the collectl monitor flushing its log to disk every
// 30 seconds (Fig. 5). The CPU case arises naturally from the ntier
// package's consolidated placement plus a bursty workload; this package
// provides the direct injectors: the periodic log-flush stall, a raw CPU
// hog for unit-level experiments, and a JVM garbage-collection pause model
// (the millibottleneck source of the authors' earlier TRIOS'14 study,
// cited as [32]).
//
// Every injector implements Injector — Start, Stop and a Fired count —
// so the scenario engine can script them uniformly: a timed event starts
// one mid-run, a later "stop" event addresses it by id, and the run
// report can say how often each one actually fired. Constructors
// validate their arguments and return an error instead of building an
// injector that would silently never fire.
package fault

import (
	"errors"
	"fmt"
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
)

// Injector is the uniform face of every millibottleneck source: Start
// begins injecting, Stop cancels future injections (an in-progress stall
// completes), and Fired counts the injections so far.
type Injector interface {
	Start()
	Stop()
	Fired() int
}

// Compile-time checks that every injector satisfies Injector.
var (
	_ Injector = (*LogFlush)(nil)
	_ Injector = (*CPUHog)(nil)
	_ Injector = (*GCPause)(nil)
)

// validate rejects the argument mistakes every injector shares.
func validate(sim *des.Simulator, vm *cpu.VM) error {
	if sim == nil {
		return errors.New("nil simulator")
	}
	if vm == nil {
		return errors.New("nil VM")
	}
	return nil
}

// LogFlush periodically stalls a VM on I/O, modeling the monitoring tool's
// log flush from memory to disk.
type LogFlush struct {
	sim      *des.Simulator
	vm       *cpu.VM
	interval time.Duration
	duration time.Duration
	ticker   *des.Ticker
	fired    int
}

// NewLogFlush creates a flush injector for vm that stalls it for duration
// every interval; both must be positive. Call Start to begin.
func NewLogFlush(sim *des.Simulator, vm *cpu.VM, interval, duration time.Duration) (*LogFlush, error) {
	if err := validate(sim, vm); err != nil {
		return nil, fmt.Errorf("logflush: %w", err)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("logflush: interval must be > 0, got %v", interval)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("logflush: duration must be > 0, got %v", duration)
	}
	return &LogFlush{sim: sim, vm: vm, interval: interval, duration: duration}, nil
}

// Start schedules flushes every interval.
func (f *LogFlush) Start() {
	if f.ticker != nil {
		return
	}
	f.ticker = des.NewTicker(f.sim, f.interval, func(time.Duration) {
		f.fired++
		f.vm.Block(f.duration)
	})
}

// Stop cancels future flushes; an in-progress stall still completes.
func (f *LogFlush) Stop() {
	if f.ticker != nil {
		f.ticker.Stop()
	}
}

// Fired implements Injector: the number of flushes injected so far.
func (f *LogFlush) Fired() int { return f.fired }

// CPUHog periodically dumps a burst of CPU demand on a VM, saturating the
// node it shares. It is the distilled form of the consolidated
// SysBursty-MySQL co-tenant: useful where the full second system would be
// noise.
type CPUHog struct {
	sim      *des.Simulator
	vm       *cpu.VM
	interval time.Duration
	demand   time.Duration
	ticker   *des.Ticker
	fired    int
}

// NewCPUHog creates a hog that submits demand of CPU work to vm every
// interval; both must be positive. Call Start to begin.
func NewCPUHog(sim *des.Simulator, vm *cpu.VM, interval, demand time.Duration) (*CPUHog, error) {
	if err := validate(sim, vm); err != nil {
		return nil, fmt.Errorf("cpuhog: %w", err)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("cpuhog: interval must be > 0, got %v", interval)
	}
	if demand <= 0 {
		return nil, fmt.Errorf("cpuhog: demand must be > 0, got %v", demand)
	}
	return &CPUHog{sim: sim, vm: vm, interval: interval, demand: demand}, nil
}

// Start schedules the bursts.
func (h *CPUHog) Start() {
	if h.ticker != nil {
		return
	}
	h.ticker = des.NewTicker(h.sim, h.interval, func(time.Duration) {
		h.fired++
		h.vm.Submit(h.demand, nil)
	})
}

// Stop cancels future bursts.
func (h *CPUHog) Stop() {
	if h.ticker != nil {
		h.ticker.Stop()
	}
}

// Fired implements Injector: the number of bursts injected so far.
func (h *CPUHog) Fired() int { return h.fired }

// GCPause models JVM stop-the-world collections: the VM freezes for a
// pause whose length grows with the number of live threads, the non-linear
// effect the paper cites when arguing against 2000-thread pools
// (Section V-E). Used by the ablation benchmarks.
type GCPause struct {
	sim      *des.Simulator
	vm       *cpu.VM
	interval time.Duration
	base     time.Duration
	perItem  time.Duration
	loadFn   func() int
	ticker   *des.Ticker
	fired    int
}

// NewGCPause creates a GC injector: every interval (which must be
// positive) the VM blocks for base + perItem × loadFn(). base and perItem
// must be non-negative and not both zero; loadFn typically reports live
// threads or heap-resident requests, nil means zero.
func NewGCPause(sim *des.Simulator, vm *cpu.VM, interval, base, perItem time.Duration, loadFn func() int) (*GCPause, error) {
	if err := validate(sim, vm); err != nil {
		return nil, fmt.Errorf("gcpause: %w", err)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("gcpause: interval must be > 0, got %v", interval)
	}
	if base < 0 || perItem < 0 {
		return nil, fmt.Errorf("gcpause: base and per-item pause must be >= 0, got %v and %v", base, perItem)
	}
	if base == 0 && perItem == 0 {
		return nil, errors.New("gcpause: base and per-item pause are both zero; the injector would never pause anything")
	}
	return &GCPause{
		sim: sim, vm: vm, interval: interval,
		base: base, perItem: perItem, loadFn: loadFn,
	}, nil
}

// Start schedules collections.
func (g *GCPause) Start() {
	if g.ticker != nil {
		return
	}
	g.ticker = des.NewTicker(g.sim, g.interval, func(time.Duration) {
		g.fired++
		pause := g.base
		if g.loadFn != nil {
			pause += time.Duration(g.loadFn()) * g.perItem
		}
		if pause > 0 {
			g.vm.Block(pause)
		}
	})
}

// Stop cancels future collections.
func (g *GCPause) Stop() {
	if g.ticker != nil {
		g.ticker.Stop()
	}
}

// Fired implements Injector: the number of collections injected so far.
func (g *GCPause) Fired() int { return g.fired }
