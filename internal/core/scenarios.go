package core

import (
	"fmt"

	"ctqosim/internal/ntier"
)

// The paper's evaluation is the embedded scenario files (Scenarios); only
// Fig. 12 needs Go, to fill its sync and async templates with a level and a
// concurrency.

// Figure12Overhead is the calibrated per-thread CPU inflation that decays
// the 2000-thread synchronous system from ≈1159 to ≈374 req/s over
// concurrency 100→1600 (Section V-E).
const Figure12Overhead = 0.0013

// Figure12Threads is the "RPC purist" pool size of Section V-E.
const Figure12Threads = 2000

// Figure12Config returns one cell of the Fig. 12 sweep: the given
// architecture under the given request concurrency (closed loop with
// near-zero think time). The sync/async templates live in
// scenarios/templates/; the cell's level and concurrency are filled here.
func Figure12Config(level ntier.NX, concurrency int) Config {
	path := "scenarios/templates/fig12-async.json"
	if level == ntier.NX0 {
		path = "scenarios/templates/fig12-sync.json"
	}
	cfg := mustScenario(path)
	cfg.Name = fmt.Sprintf("figure-12 %s at concurrency %d", level, concurrency)
	cfg.NX = level
	cfg.Clients = concurrency
	return cfg
}

// ThroughputPoint is one cell of the Fig. 12 sweep.
type ThroughputPoint struct {
	// Concurrency is the number of concurrent requests.
	Concurrency int
	// Sync is the 2000-thread synchronous system's throughput (req/s).
	Sync float64
	// Async is the asynchronous system's throughput (req/s).
	Async float64
}

// Figure12Concurrencies is the paper's x-axis.
var Figure12Concurrencies = []int{100, 200, 400, 800, 1600}

// Figure12 sweeps concurrency for both architectures and returns the
// throughput table of Fig. 12. Each concurrency level contributes one
// sync and one async run, flattened into a single batch on this runner's
// pool and re-paired by submission slot, so the rows come back in sweep
// order whatever the pool size.
func (r *Runner) Figure12(concurrencies []int) ([]ThroughputPoint, error) {
	if len(concurrencies) == 0 {
		concurrencies = Figure12Concurrencies
	}
	cfgs := make([]Config, 0, 2*len(concurrencies))
	for _, n := range concurrencies {
		cfgs = append(cfgs,
			Figure12Config(ntier.NX0, n),
			Figure12Config(ntier.NX3, n))
	}
	results, err := r.Run(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]ThroughputPoint, 0, len(concurrencies))
	for i, n := range concurrencies {
		out = append(out, ThroughputPoint{
			Concurrency: n,
			Sync:        results[2*i].Throughput,
			Async:       results[2*i+1].Throughput,
		})
	}
	return out, nil
}
