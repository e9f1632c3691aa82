package metrics

import (
	"slices"
	"time"

	"ctqosim/internal/cpu"
	"ctqosim/internal/des"
)

// DefaultSampleInterval is the paper's collectl sampling period.
const DefaultSampleInterval = 50 * time.Millisecond

// DepthSampler exposes a server's instantaneous queue depth; satisfied by
// server.Server.
type DepthSampler interface {
	Name() string
	Depth() int
}

// Series is a fixed-interval time series of float64 samples. Sample i was
// taken at (i+1) × Interval.
type Series struct {
	// Interval is the sampling period.
	Interval time.Duration
	// Values holds one sample per interval.
	Values []float64
}

// Append adds one sample.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// At returns the sample nearest to simulated time t (clamped to range), or
// 0 for an empty series.
func (s *Series) At(t time.Duration) float64 {
	if len(s.Values) == 0 || s.Interval <= 0 {
		return 0
	}
	idx := int(t/s.Interval) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.Values) {
		idx = len(s.Values) - 1
	}
	return s.Values[idx]
}

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	m := 0.0
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the average sample, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// MeanOver averages the samples within the simulated-time window
// [from, to).
func (s *Series) MeanOver(from, to time.Duration) float64 {
	if s.Interval <= 0 || len(s.Values) == 0 || to <= from {
		return 0
	}
	lo := int(from / s.Interval)
	hi := int(to / s.Interval)
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Values) {
		hi = len(s.Values)
	}
	if hi <= lo {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// Monitor samples watched servers and VMs at a fixed interval, producing
// the timeline series plotted throughout the paper: per-server queued
// requests, per-VM utilization (run-queue busy fraction) and I/O wait.
type Monitor struct {
	sim      *des.Simulator
	interval time.Duration

	servers []DepthSampler
	vms     []*watchedVM

	queues  map[string]*Series
	utils   map[string]*Series
	iowait  map[string]*Series
	watched []*Series // every series the watches created, for Reserve

	ticker *des.Ticker
}

type watchedVM struct {
	name string
	vm   *cpu.VM
	prev cpu.Usage
}

// NewMonitor creates a monitor sampling at the given interval (zero means
// DefaultSampleInterval). Call Start after registering watches.
func NewMonitor(sim *des.Simulator, interval time.Duration) *Monitor {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	return &Monitor{
		sim:      sim,
		interval: interval,
		queues:   make(map[string]*Series),
		utils:    make(map[string]*Series),
		iowait:   make(map[string]*Series),
	}
}

// Interval returns the sampling period.
func (m *Monitor) Interval() time.Duration { return m.interval }

// newSeries creates an empty series at the monitor's interval.
func (m *Monitor) newSeries() *Series {
	s := &Series{Interval: m.interval}
	m.watched = append(m.watched, s)
	return s
}

// Reserve sizes every watched series for a run whose horizon is until,
// so that sampling the run allocates nothing: each series is allocated
// once, at its final length, instead of regrown as it fills. Call it
// after the last watch; a run past until grows its series as usual.
func (m *Monitor) Reserve(until time.Duration) {
	n := int(until / m.interval)
	for _, s := range m.watched {
		s.Values = slices.Grow(s.Values, max(n-len(s.Values), 0))
	}
}

// WatchServer samples s.Depth() every interval into the queue series named
// after the server.
func (m *Monitor) WatchServer(s DepthSampler) {
	m.servers = append(m.servers, s)
	m.queues[s.Name()] = m.newSeries()
}

// WatchVM samples the VM's utilization and I/O wait fractions every
// interval.
func (m *Monitor) WatchVM(name string, vm *cpu.VM) {
	m.vms = append(m.vms, &watchedVM{name: name, vm: vm, prev: vm.Usage()})
	m.utils[name] = m.newSeries()
	m.iowait[name] = m.newSeries()
}

// SetUtil installs a pre-built utilization series under the given name,
// e.g. one imported from an external monitoring log for offline analysis.
func (m *Monitor) SetUtil(name string, s *Series) { m.utils[name] = s }

// SetIOWait installs a pre-built I/O-wait series under the given name.
func (m *Monitor) SetIOWait(name string, s *Series) { m.iowait[name] = s }

// Start begins sampling.
func (m *Monitor) Start() {
	if m.ticker != nil {
		return
	}
	m.ticker = des.NewTicker(m.sim, m.interval, func(time.Duration) { m.sample() })
}

// Stop halts sampling.
func (m *Monitor) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// Queue returns the queued-requests series for a watched server.
func (m *Monitor) Queue(name string) *Series { return m.queues[name] }

// Util returns the utilization series (0..1) for a watched VM: the
// fraction of each window the VM had runnable work — the quantity the
// paper's CPU timelines plot, where a saturated VM is pinned at 100%.
func (m *Monitor) Util(name string) *Series { return m.utils[name] }

// IOWait returns the I/O-wait series (0..1) for a watched VM.
func (m *Monitor) IOWait(name string) *Series { return m.iowait[name] }

func (m *Monitor) sample() {
	for _, s := range m.servers {
		m.queues[s.Name()].Append(float64(s.Depth()))
	}
	secs := m.interval.Seconds()
	for _, w := range m.vms {
		u := w.vm.Usage()
		util := (u.Runnable - w.prev.Runnable).Seconds() / secs
		wait := (u.Blocked - w.prev.Blocked).Seconds() / secs
		w.prev = u
		m.utils[w.name].Append(clamp01(util))
		m.iowait[w.name].Append(clamp01(wait))
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
