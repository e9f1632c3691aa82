package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"ctqosim/internal/core"
	"ctqosim/internal/metrics"
	"ctqosim/internal/span"
)

// sweepSeeds is the number of seeds one async-sweep experiment covers,
// and sweepShard the seeds per shard: two one-seed shards give each of
// the two Runner workers one seed, so both simulate concurrently.
const (
	sweepSeeds   = 2
	sweepShard   = 1
	sweepWorkers = 2
)

// seedsPerRun is how many distinct experiment seeds a single-run workload
// cycles through; each repeats several times in a run, so the digest
// check compares repetitions of every seed.
const seedsPerRun = 4

// workload is one benchmark input: a registered scenario adjusted the way
// one of the CLIs runs it.
type workload struct {
	name     string
	scenario string
	// sweep runs the scenario over a seed range through Runner.Sweep
	// instead of one core.New(cfg).Run per experiment.
	sweep bool
	// adjust mirrors the CLI's changes to the registered config.
	adjust func(*core.Config)
	// check validates one single-run result (nil error = pass).
	check func(*core.Result) error
}

var workloads = []workload{
	{
		// ntierlab simstats: fig3 with trace and spans off, kernel
		// self-profiling on, bounded retention.
		name:     "ctqo-sync",
		scenario: "fig3",
		adjust: func(cfg *core.Config) {
			cfg.Trace = false
			cfg.Spans = false
			cfg.Retention = metrics.RetainBounded
		},
		check: checkUpstreamCTQO,
	},
	{
		// ctqo-analyze -scenario fig3 -spans -breakdown: the registered
		// config, trace log and spans on, every request retained.
		name:     "ctqo-telemetry",
		scenario: "fig3",
		adjust: func(cfg *core.Config) {
			cfg.Spans = true
		},
		check: func(res *core.Result) error {
			if err := checkUpstreamCTQO(res); err != nil {
				return err
			}
			bd := res.SpanBreakdown
			if bd == nil || bd.VLRT.Count == 0 {
				return fmt.Errorf("no VLRT span breakdown")
			}
			if share := bd.VLRT.Share(span.KindRetransmit); share < 0.9 {
				return fmt.Errorf("retransmission gaps are %.1f%% of VLRT time, want >= 90%%", 100*share)
			}
			return nil
		},
	},
	{
		// ntierlab sweep -scenario async-highutil -parallel 2 with bounded
		// retention (sweeps always turn trace and spans off).
		name:     "async-sweep",
		scenario: "async-highutil",
		sweep:    true,
		adjust: func(cfg *core.Config) {
			cfg.Trace = false
			cfg.Spans = false
			cfg.Retention = metrics.RetainBounded
		},
		check: func(res *core.Result) error {
			if res.TotalDrops != 0 {
				return fmt.Errorf("async system dropped %d packets, want 0", res.TotalDrops)
			}
			return nil
		},
	},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// resolve looks the scenario up in the registry, as the CLIs do, and
// applies the workload's adjustments. SimStats is on everywhere: it only
// reads counters at the run boundaries, and the digest needs the event
// count.
func (w workload) resolve(seed int64) (core.Config, error) {
	cfg, ok := core.Scenarios()[w.scenario]
	if !ok {
		return core.Config{}, fmt.Errorf("scenario %q is not registered", w.scenario)
	}
	w.adjust(&cfg)
	cfg.SimStats = true
	cfg.Seed = seed
	return cfg, nil
}

// simulations is how many seeds one experiment simulates.
func (w workload) simulations() int {
	if w.sweep {
		return sweepSeeds
	}
	return 1
}

// concurrency is how many simulations of one experiment run at once.
func (w workload) concurrency() int {
	if w.sweep {
		return sweepWorkers
	}
	return 1
}

// experimentSeeds derives the seeds a run cycles through from the
// benchmark seed: the first seed of each experiment (a sweep covers
// sweepSeeds consecutive seeds from it).
func (w workload) experimentSeeds(seed int64) []int64 {
	n, stride := seedsPerRun, int64(1)
	if w.sweep {
		n, stride = 1, sweepSeeds
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*int64(n)*stride + int64(i)*stride + 1
	}
	return out
}

// outcome is what one experiment produced, checked and summarized.
type outcome struct {
	// runs is the number of simulations (seeds) the experiment covered.
	runs int
	// requests is client requests completed in the measured windows.
	requests int64
	// digest summarizes the simulated statistics; repetitions of one
	// seed must produce the same digest.
	digest string
	// err is a Run error or a failed output check.
	err error
}

// output is the raw product of one experiment.
type output struct {
	cfg   core.Config
	res   *core.Result     // single-run workloads
	stats *core.SweepStats // the sweep workload
	err   error
}

// run performs one experiment from cfg (its Seed is the first seed)
// through the entry point the CLI uses. It is the timed part.
func (w workload) run(cfg core.Config) output {
	if w.sweep {
		sc := core.SweepConfig{Config: cfg, Seeds: sweepSeeds, ShardSize: sweepShard}
		stats, err := core.NewRunner(sweepWorkers).Sweep(sc)
		return output{cfg: cfg, stats: stats, err: err}
	}
	res, err := core.New(cfg).Run()
	return output{cfg: cfg, res: res, err: err}
}

// judge checks an experiment's output and summarizes it.
func (w workload) judge(o output) outcome {
	if w.sweep {
		return judgeSweep(o)
	}
	return w.judgeRun(o)
}

// probe runs cfg once as a single run, untimed, and judges it: on the
// sweep workload this is the per-run check of one seed's servers, and in
// the traced mode its result supplies the per-layer counts.
func (w workload) probe(cfg core.Config) (outcome, *core.Result) {
	res, err := core.New(cfg).Run()
	return w.judgeRun(output{cfg: cfg, res: res, err: err}), res
}

func (w workload) judgeRun(o output) outcome {
	out := outcome{runs: 1, err: o.err}
	if o.err != nil {
		return out
	}
	out.requests = int64(o.res.Recorder.Len())
	out.digest = digestOf(o.res)
	if err := w.check(o.res); err != nil {
		out.err = err
	} else if err := checkConservation(o.res); err != nil {
		out.err = err
	}
	return out
}

func judgeSweep(o output) outcome {
	out := outcome{runs: sweepSeeds, err: o.err}
	stats := o.stats
	if stats == nil {
		return out
	}
	// Throughput is requests per measured second, per run.
	window := core.New(o.cfg).Config().Duration.Seconds()
	out.requests = int64(stats.Throughput.Mean*float64(stats.Completed)*window + 0.5)
	raw, err := stats.JSON()
	if err != nil {
		out.err = err
		return out
	}
	sum := sha256.Sum256(raw)
	out.digest = fmt.Sprintf("seeds=%d..%d completed=%d failed=%d tput_mean=%.3f vlrt_max=%g drops_max=%g p99_ms_p50=%g sha256=%s",
		stats.SeedStart, stats.SeedStart+int64(stats.Requested)-1, stats.Completed, stats.Failed,
		stats.Throughput.Mean, stats.VLRT.Max, stats.Drops.Max, stats.P99Millis.P50,
		hex.EncodeToString(sum[:8]))
	if out.err == nil {
		switch {
		case stats.Failed != 0:
			out.err = fmt.Errorf("%d of %d seeds failed", stats.Failed, stats.Requested)
		case stats.Drops.Max != 0:
			out.err = fmt.Errorf("a seed dropped %g packets, want 0 on every seed", stats.Drops.Max)
		}
	}
	return out
}

// digestOf summarizes a single run's simulated statistics: requests,
// drops per server, VLRT count, tail percentiles and kernel events.
func digestOf(res *core.Result) string {
	servers := make([]string, 0, len(res.DropsPerServer))
	for name := range res.DropsPerServer {
		servers = append(servers, name)
	}
	sort.Strings(servers)
	drops := make([]string, len(servers))
	for i, name := range servers {
		drops[i] = fmt.Sprintf("%s:%d", name, res.DropsPerServer[name])
	}
	var events uint64
	if res.SimStats != nil {
		events = res.SimStats.EventsExecuted
	}
	rec := res.Recorder
	return fmt.Sprintf("seed=%d req=%d failed=%d drops=[%s] vlrt=%d p50=%v p99=%v p99.9=%v events=%d",
		res.Config.Seed, rec.Len(), rec.FailedCount(), strings.Join(drops, ","), res.VLRTCount,
		rec.Percentile(0.50), rec.Percentile(0.99), rec.Percentile(0.999), events)
}

// checkUpstreamCTQO requires the paper's Fig. 3 outcome: packets dropped
// at the web tier and very long response times recorded.
func checkUpstreamCTQO(res *core.Result) error {
	web := res.System.TierNames()[0]
	if res.DropsPerServer[web] == 0 {
		return fmt.Errorf("no drops at the web tier %s", web)
	}
	if res.VLRTCount == 0 {
		return fmt.Errorf("no VLRT requests")
	}
	return nil
}

// checkConservation requires every server of the run to account for each
// admitted request: accepted = completed + failed + in flight.
func checkConservation(res *core.Result) error {
	servers := res.System.Servers()
	if res.Bursty != nil {
		servers = append(servers, res.Bursty.Servers()...)
	}
	for _, srv := range servers {
		st := srv.Stats()
		if held := st.Completed + st.Failed + int64(srv.Depth()); st.Accepted != held {
			return fmt.Errorf("%s accepted %d requests but completed %d + failed %d + in flight %d",
				srv.Name(), st.Accepted, st.Completed, st.Failed, srv.Depth())
		}
	}
	return nil
}

// zeroHorizon returns cfg with a 1 ns warm-up and duration: running it
// builds the system, starts the clients and stops at the first events,
// which is the set-up an experiment pays before simulating.
func zeroHorizon(cfg core.Config) core.Config {
	cfg.WarmUp = time.Nanosecond
	cfg.Duration = time.Nanosecond
	return cfg
}
