package core

import (
	"fmt"

	"ctqosim/internal/ntier"
)

// Scenario presets, one per paper figure. Each constructor loads its
// embedded scenario file (internal/core/scenarios/) and applies only the
// parameter the constructor's signature varies — the files are the source
// of truth, and TestScenarioFilesMatchLegacyPresets pins them to the
// original hand-written values. Durations are chosen so each run spans
// many millibottleneck periods; Fig. 1 runs longer to populate the
// histogram tail.

// Figure1Config reproduces one panel of Fig. 1: the multi-modal
// response-time histogram of the fully synchronous system under VM
// consolidation, at the given client population (the paper uses 4000,
// 7000 and 8000; the registry embeds one file per panel).
func Figure1Config(clients int) Config {
	cfg := mustScenario("scenarios/fig1-wl7000.json")
	cfg.Name = fmt.Sprintf("figure-1 WL %d", clients)
	cfg.Clients = clients
	return cfg
}

// Figure3Config reproduces Fig. 3: upstream CTQO from CPU millibottlenecks
// in SysSteady-Tomcat, co-located with SysBursty-MySQL; drops at Apache.
func Figure3Config() Config {
	return mustScenario("scenarios/fig3.json")
}

// Figure5Config reproduces Fig. 5: upstream CTQO from I/O millibottlenecks
// (collectl log flush every 30s in MySQL), with the app tier scaled to 4
// cores so the app tier is no longer the bottleneck.
func Figure5Config() Config {
	return mustScenario("scenarios/fig5.json")
}

// Figure7Config reproduces Fig. 7: NX=1 (Nginx-Tomcat-MySQL) with
// millibottlenecks in Tomcat — no upstream CTQO at Nginx, but downstream
// CTQO and drops at Tomcat.
func Figure7Config() Config {
	return mustScenario("scenarios/fig7.json")
}

// Figure8Config reproduces Fig. 8: NX=2 (Nginx-XTomcat-MySQL) with
// millibottlenecks in MySQL — downstream CTQO and drops at MySQL.
func Figure8Config() Config {
	return mustScenario("scenarios/fig8.json")
}

// Figure9Config reproduces Fig. 9: NX=2 with millibottlenecks in XTomcat —
// the post-millibottleneck batch release overflows MySQL.
func Figure9Config() Config {
	return mustScenario("scenarios/fig9.json")
}

// Figure10Config reproduces Fig. 10: NX=3 with millibottlenecks in
// XTomcat — no CTQO, no drops.
func Figure10Config() Config {
	return mustScenario("scenarios/fig10.json")
}

// Figure11Config reproduces Fig. 11: NX=3 with I/O millibottlenecks in
// XMySQL — no CTQO, no drops.
func Figure11Config() Config {
	return mustScenario("scenarios/fig11.json")
}

// NX1MySQLBottleneckConfig reproduces the experiment the paper describes
// but omits for space in Section V-B: NX=1 with millibottlenecks in
// MySQL, causing upstream CTQO at Tomcat.
func NX1MySQLBottleneckConfig() Config {
	return mustScenario("scenarios/nx1-mysql.json")
}

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

// AsyncHighUtilConfig checks the abstract's headline claim: with all three
// tiers asynchronous, CTQO and dropped packets remain absent at utilization
// as high as 83% (WL 8000), despite the same millibottlenecks.
func AsyncHighUtilConfig() Config {
	return mustScenario("scenarios/async-highutil.json")
}

// GCMillibottleneckConfig reproduces the millibottleneck source of the
// authors' earlier TRIOS'14 study, cited by Section II as a cause this
// paper's solution is agnostic to: periodic JVM garbage collections in the
// app tier stall it long enough to trigger CTQO in the synchronous system.
func GCMillibottleneckConfig(level ntier.NX) Config {
	cfg := mustScenario("scenarios/gc-sync.json")
	cfg.Name = fmt.Sprintf("GC millibottleneck under %s", level)
	cfg.NX = level
	return cfg
}
