// Command ntierlab runs reproduction scenarios from the command line.
//
// Usage:
//
//	ntierlab list
//	ntierlab run <name|file> [-duration 60s] [-seed 1] [-json] [-csv dir]
//	              [-spans] [-exemplars N] [-perfetto file] [-waterfall file]
//	              [-retention all|bounded] [-simstats] [-benchout file]
//	              [-cpuprofile file] [-memprofile file]
//	ntierlab scenario validate <file>...
//	ntierlab scenario generate [-seed 1] [-o file.json]
//	ntierlab predict <rate req/s> <burst duration> <capacity>
//	ntierlab fig12 [-points 100,200,400,800,1600] [-parallel N]
//	ntierlab matrix [-duration 45s] [-parallel N]
//	ntierlab sweep -scenario fig3 -seeds 1..500 [-shard 25] [-parallel N]
//	                [-duration 60s] [-csv file] [-json] [-benchout file]
//	                [-retention all|bounded] [-cpuprofile file] [-memprofile file]
//	ntierlab simstats [-scenario fig3] [-duration 60s] [-seed 1]
//	                [-retention all|bounded] [-benchout file]
//	                [-cpuprofile file] [-memprofile file]
//
// run is the one way to run a scenario. Its argument, like every
// scenario argument here, is a registry name (see list) or a scenario
// file, resolved by core.ResolveScenario: a path that exists on disk is
// a file; the 16 CTQO matrix cells are files under
// internal/core/scenarios/cells/. It prints the Section IV story of the
// run and evaluates the file's assertions: a failing one exits non-zero.
// -exemplars, -perfetto and -waterfall turn spans on.
//
// scenario validate parses and compiles files without running them;
// scenario generate emits a seeded random stress scenario.
//
// The multi-run subcommands (fig12, matrix, sweep) fan their
// independent simulations across a core.Runner worker pool: -parallel 0
// (the default) uses GOMAXPROCS workers, -parallel 1 runs strictly
// serially. Output is byte-identical whatever the pool size.
//
// sweep replicates a scenario over a seed range: it partitions the range
// into shards, merges the per-shard accumulators in shard order, and
// reports mean±95% CI plus tail percentiles (p99, p99.9) of per-run
// throughput, VLRT counts, drops and p99 response time. A few seeds
// (-seeds 10) give the means; the tails need hundreds.
//
// simstats is the simulator's own benchmark: it runs one scenario with
// DES self-profiling on and reports events executed, events/second,
// requests completed and requests/second, the pending-heap high-water
// mark and allocation totals. With -benchout it records the measurement
// under the "simstats" key of the keyed JSON bench file and enforces a
// regression floor on requests/second against the previously recorded
// baseline (-bench-floor adjusts the ratio, 0 or less records without
// comparing) — the reference point for hot-path work. Requests, not
// events, are the unit, so removing events that do no work reads as the
// speed-up it is. The gate compares only like with like: a baseline
// taken on another scenario, seed, duration or retention fails the
// command.
//
// -retention bounded caps the response times the recorder's HDR
// histograms keep verbatim, so its memory is constant in the request
// count; the default, all, keeps every response time for exact
// quantiles. -cpuprofile and -memprofile write pprof profiles for the
// process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ctqosim/internal/benchrec"
	"ctqosim/internal/core"
	"ctqosim/internal/metrics"
	"ctqosim/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ntierlab:", err)
		os.Exit(1)
	}
}

// scenarios maps CLI names to their configurations.
func scenarios() map[string]core.Config { return core.Scenarios() }

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ntierlab <list|run|scenario|predict|fig12|matrix|sweep|simstats> ...")
	}
	switch args[0] {
	case "list":
		return list(args[1:])
	case "run":
		return runScenario(args[1:])
	case "scenario":
		return scenarioCmd(args[1:])
	case "predict":
		return predict(args[1:])
	case "fig12":
		return fig12(args[1:])
	case "matrix":
		return matrix(args[1:])
	case "sweep":
		return sweep(args[1:])
	case "simstats":
		return simstats(args[1:])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func list(args []string) error {
	if err := parseFlags(flag.NewFlagSet("list", flag.ContinueOnError), args); err != nil {
		return err
	}
	all := scenarios()
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-16s %s\n", name, all[name].Name)
	}
	return nil
}

// parseFlags parses a subcommand's flags and rejects any argument left
// over: flag parsing stops at the first non-flag word, so a stray word
// would silently drop every flag after it.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return nil
}

func predict(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: ntierlab predict <rate req/s> <duration> <capacity>")
	}
	rate, err := strconv.ParseFloat(args[0], 64)
	if err != nil {
		return fmt.Errorf("rate: %w", err)
	}
	dur, err := time.ParseDuration(args[1])
	if err != nil {
		return fmt.Errorf("duration: %w", err)
	}
	capacity, err := strconv.Atoi(args[2])
	if err != nil {
		return fmt.Errorf("capacity: %w", err)
	}
	p := core.PredictOverflow(rate, dur, capacity)
	fmt.Printf("arrivals during millibottleneck: %d\n", p.Arrivals)
	fmt.Printf("queueable (MaxSysQDepth):        %d\n", p.Capacity)
	if p.Overflows() {
		fmt.Printf("VERDICT: overflow - ~%d dropped packets expected\n", p.Dropped)
	} else {
		fmt.Printf("VERDICT: absorbed - shortest overflowing burst at this rate: %v\n",
			core.MinBurstForOverflow(rate, capacity).Round(time.Millisecond))
	}
	return nil
}

func fig12(args []string) error {
	fs := flag.NewFlagSet("fig12", flag.ContinueOnError)
	pointsFlag := fs.String("points", "", "comma-separated concurrency levels")
	parallel := parallelFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	var points []int
	if *pointsFlag != "" {
		for _, s := range strings.Split(*pointsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("points: %w", err)
			}
			points = append(points, n)
		}
	}
	rows, err := core.NewRunner(*parallel).Figure12(points)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-22s %s\n", "concurrency",
		fmt.Sprintf("sync (%d threads)", core.Figure12Threads), "async")
	for _, p := range rows {
		fmt.Printf("%-12d %-22.0f %.0f\n", p.Concurrency, p.Sync, p.Async)
	}
	return nil
}

// parallelFlag registers the shared worker-pool flag on a multi-run
// subcommand's flag set.
func parallelFlag(fs *flag.FlagSet) *int {
	return fs.Int("parallel", 0,
		"simulation worker pool size; 0 = GOMAXPROCS, 1 = serial (output is byte-identical either way)")
}

// profileFlags registers the shared pprof flags on a subcommand's flag
// set. Pass the returned pointers to startProfiling after parseFlags.
func profileFlags(fs *flag.FlagSet) (cpu, mem *string) {
	cpu = fs.String("cpuprofile", "", "write a CPU pprof profile to this file")
	mem = fs.String("memprofile", "", "write a heap pprof profile to this file on exit")
	return cpu, mem
}

// startProfiling starts the requested pprof collection and returns the
// stop function; deferred errors from stop are reported on stderr so
// they never mask the subcommand's own error.
func startProfiling(cpu, mem string) (func(), error) {
	stop, err := profiling.Start(cpu, mem)
	if err != nil {
		return nil, err
	}
	return func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "ntierlab: profiling:", err)
		}
	}, nil
}

// parseRetention maps the -retention flag values onto metrics.Retention.
func parseRetention(s string) (metrics.Retention, error) {
	switch s {
	case "", "all":
		return metrics.RetainAll, nil
	case "bounded":
		return metrics.RetainBounded, nil
	default:
		return 0, fmt.Errorf("retention: want all or bounded, got %q", s)
	}
}

// parseSeedRange parses "lo..hi" (inclusive) or a bare count N (meaning
// 1..N) into the first seed and the seed count.
func parseSeedRange(s string) (start int64, count int, err error) {
	if lo, hi, ok := strings.Cut(s, ".."); ok {
		first, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("seeds: bad range start %q: %w", lo, err)
		}
		last, err := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("seeds: bad range end %q: %w", hi, err)
		}
		if last < first {
			return 0, 0, fmt.Errorf("seeds: empty range %d..%d", first, last)
		}
		span := uint64(last - first + 1)
		if span > 1<<31 {
			return 0, 0, fmt.Errorf("seeds: range %d..%d is absurdly large", first, last)
		}
		return first, int(span), nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 1 {
		return 0, 0, fmt.Errorf("seeds: want lo..hi or a positive count, got %q", s)
	}
	return 1, n, nil
}

func sweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	scenarioName := fs.String("scenario", "", "scenario to sweep: a registry name (see: ntierlab list) or a scenario file")
	seedsFlag := fs.String("seeds", "1..100", "seed range lo..hi (inclusive), or a count N meaning 1..N")
	duration := fs.Duration("duration", 0, "override measured duration")
	shard := fs.Int("shard", 0,
		fmt.Sprintf("seeds per shard; 0 = default %d (output is identical for any worker count at a fixed shard size)", core.DefaultSweepShardSize))
	csvPath := fs.String("csv", "", "write the per-metric CSV report to this file ('-' for stdout)")
	asJSON := fs.Bool("json", false, "emit the JSON report instead of text")
	benchout := fs.String("benchout", "",
		"time the sweep serially and on the pool, and record the comparison under the \"sweep\" key of this JSON file")
	retention := fs.String("retention", "", "telemetry retention: all (default, exact) or bounded (constant-memory)")
	parallel := parallelFlag(fs)
	cpuProf, memProf := profileFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *scenarioName == "" {
		return fmt.Errorf("usage: ntierlab sweep -scenario <name|file> -seeds 1..500 [flags]")
	}
	cfg, _, err := core.ResolveScenario(*scenarioName)
	if err != nil {
		return err
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	// Sweeps aggregate per-run statistics; per-event tracing would only
	// slow the hundreds of replications down.
	cfg.Trace = false
	cfg.Spans = false
	ret, err := parseRetention(*retention)
	if err != nil {
		return err
	}
	cfg.Retention = ret
	stopProf, err := startProfiling(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()
	start, count, err := parseSeedRange(*seedsFlag)
	if err != nil {
		return err
	}
	cfg.Seed = start
	sc := core.SweepConfig{Config: cfg, Seeds: count, ShardSize: *shard}

	if *benchout != "" {
		return benchSweep(*benchout, sc, *parallel)
	}

	wallStart := time.Now()
	stats, err := core.NewRunner(*parallel).Sweep(sc)
	wall := time.Since(wallStart).Round(time.Millisecond)
	// Partial-results contract: render what completed before reporting
	// the joined per-seed errors.
	if stats != nil {
		if *asJSON {
			data, jerr := stats.JSON()
			if jerr != nil {
				return jerr
			}
			fmt.Print(string(data))
		} else {
			fmt.Print(stats)
			fmt.Printf("  %d runs in %v wall\n", stats.Completed, wall)
		}
		if *csvPath != "" {
			if *csvPath == "-" {
				fmt.Print(string(stats.CSV()))
			} else if werr := os.WriteFile(*csvPath, stats.CSV(), 0o644); werr != nil {
				return werr
			} else if !*asJSON {
				fmt.Printf("  CSV written to %s\n", *csvPath)
			}
		}
	}
	return err
}

// benchSweep times the sweep serially and on the pool and records the
// comparison in the keyed BENCH_parallel.json format.
func benchSweep(benchPath string, sc core.SweepConfig, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	serialStart := time.Now()
	if _, err := core.NewRunner(1).Sweep(sc); err != nil {
		return fmt.Errorf("serial pass: %w", err)
	}
	serial := time.Since(serialStart)

	parallelStart := time.Now()
	stats, err := core.NewRunner(workers).Sweep(sc)
	if err != nil {
		return fmt.Errorf("parallel pass: %w", err)
	}
	par := time.Since(parallelStart)

	record := struct {
		Benchmark       string  `json:"benchmark"`
		Scenario        string  `json:"scenario"`
		Seeds           int     `json:"seeds"`
		ShardSize       int     `json:"shard_size"`
		CPUs            int     `json:"cpus"`
		Workers         int     `json:"workers"`
		SerialSeconds   float64 `json:"serial_seconds"`
		ParallelSeconds float64 `json:"parallel_seconds"`
		Speedup         float64 `json:"speedup"`
	}{
		Benchmark:       "ntierlab-sweep",
		Scenario:        stats.Scenario,
		Seeds:           stats.Requested,
		ShardSize:       stats.ShardSize,
		CPUs:            runtime.NumCPU(),
		Workers:         workers,
		SerialSeconds:   serial.Seconds(),
		ParallelSeconds: par.Seconds(),
		Speedup:         serial.Seconds() / par.Seconds(),
	}
	if err := benchrec.Update(benchPath, "sweep", record); err != nil {
		return err
	}
	fmt.Print(stats)
	fmt.Printf("  serial %v, parallel(%d) %v — %.2fx; recorded in %s\n",
		serial.Round(time.Millisecond), workers, par.Round(time.Millisecond),
		record.Speedup, benchPath)
	return nil
}

// simstatsFloorRatio is the default enforced regression gate: a run
// below this fraction of the recorded baseline's requests/second fails
// the command (leaving the baseline unchanged). -bench-floor overrides
// the ratio for noisy hardware; zero or negative records the run
// without comparing.
const simstatsFloorRatio = 0.5

// simstatsRecord is the "simstats" entry of the keyed bench file: the
// simulator's self-measured throughput baseline that hot-path work is
// compared against. Requests counts the requests completed in the
// measured window, and RequestsPerSecond divides them by the same wall
// time as EventsPerSecond.
type simstatsRecord struct {
	Benchmark         string  `json:"benchmark"`
	Scenario          string  `json:"scenario"`
	Seed              int64   `json:"seed"`
	DurationSeconds   float64 `json:"duration_seconds"`
	Retention         string  `json:"retention"`
	CPUs              int     `json:"cpus"`
	EventsExecuted    uint64  `json:"events_executed"`
	EventsScheduled   uint64  `json:"events_scheduled"`
	PeakPending       int     `json:"peak_pending"`
	WallSeconds       float64 `json:"wall_seconds"`
	EventsPerSecond   float64 `json:"events_per_second"`
	Requests          int     `json:"requests"`
	RequestsPerSecond float64 `json:"requests_per_second"`
	AllocMB           float64 `json:"alloc_mb"`
	GCCycles          uint32  `json:"gc_cycles"`
}

// baselineMismatch names each field that makes base, the recorded
// baseline, a measurement of different work from rec, this run:
// requests/s are comparable only on the same scenario, seed, duration
// and retention, and only if the baseline recorded them. It returns ""
// when they match.
func baselineMismatch(base, rec simstatsRecord) string {
	var diffs []string
	if base.RequestsPerSecond <= 0 {
		diffs = append(diffs, "the baseline recorded no requests/s")
	}
	if base.Scenario != rec.Scenario {
		diffs = append(diffs, fmt.Sprintf("scenario %s, baseline %s", rec.Scenario, base.Scenario))
	}
	if base.Seed != rec.Seed {
		diffs = append(diffs, fmt.Sprintf("seed %d, baseline %d", rec.Seed, base.Seed))
	}
	if base.DurationSeconds != rec.DurationSeconds {
		diffs = append(diffs, fmt.Sprintf("duration %gs, baseline %gs", rec.DurationSeconds, base.DurationSeconds))
	}
	if base.Retention != rec.Retention {
		diffs = append(diffs, fmt.Sprintf("retention %s, baseline %s", rec.Retention, base.Retention))
	}
	return strings.Join(diffs, "; ")
}

// readSimstatsBaseline loads the previously recorded "simstats" entry
// from the keyed bench file, if one exists.
func readSimstatsBaseline(path string) (simstatsRecord, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return simstatsRecord{}, false
	}
	entries := map[string]json.RawMessage{}
	if json.Unmarshal(data, &entries) != nil {
		return simstatsRecord{}, false
	}
	var rec simstatsRecord
	if raw, ok := entries["simstats"]; !ok || json.Unmarshal(raw, &rec) != nil {
		return simstatsRecord{}, false
	}
	return rec, true
}

func simstats(args []string) error {
	fs := flag.NewFlagSet("simstats", flag.ContinueOnError)
	scenarioName := fs.String("scenario", "fig3", "scenario to profile: a registry name (see: ntierlab list) or a scenario file")
	duration := fs.Duration("duration", 0, "override measured duration")
	seed := fs.Int64("seed", 0, "override RNG seed")
	retention := fs.String("retention", "bounded",
		"telemetry retention: all (exact) or bounded (constant-memory)")
	benchout := fs.String("benchout", "",
		"record the measurement under the \"simstats\" key of this JSON file (enforced comparison against the recorded baseline)")
	benchFloor := fs.Float64("bench-floor", simstatsFloorRatio,
		"fail when requests/s drops below this fraction of the recorded baseline, or when the baseline ran other work (0 or less records without comparing)")
	cpuProf, memProf := profileFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg, _, err := core.ResolveScenario(*scenarioName)
	if err != nil {
		return err
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	// The kernel benchmark measures the event loop, not the tracing
	// subsystems layered on it.
	cfg.Trace = false
	cfg.Spans = false
	cfg.SimStats = true
	ret, err := parseRetention(*retention)
	if err != nil {
		return err
	}
	cfg.Retention = ret
	retName := "all"
	if ret == metrics.RetainBounded {
		retName = "bounded"
	}

	stopProf, err := startProfiling(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	exp := core.New(cfg)
	defaulted := exp.Config()
	res, err := exp.Run()
	if err != nil {
		return err
	}
	st := res.SimStats
	fmt.Printf("%s seed %d, %v simulated, retention %s\n",
		cfg.Name, defaulted.Seed, res.End, retName)
	fmt.Println(st)
	requests := res.Recorder.Len()
	var reqPerSec float64
	if st.WallSeconds > 0 {
		reqPerSec = float64(requests) / st.WallSeconds
	}
	fmt.Printf("%d requests completed, %.3gk requests/s\n", requests, reqPerSec/1e3)
	fmt.Printf("telemetry footprint: %.1f KB\n",
		float64(res.Recorder.MemoryFootprint())/1024)

	if *benchout == "" {
		return nil
	}
	record := simstatsRecord{
		Benchmark:         "ntierlab-simstats",
		Scenario:          *scenarioName,
		Seed:              defaulted.Seed,
		DurationSeconds:   defaulted.Duration.Seconds(),
		Retention:         retName,
		CPUs:              runtime.NumCPU(),
		EventsExecuted:    st.EventsExecuted,
		EventsScheduled:   st.EventsScheduled,
		PeakPending:       st.PeakPending,
		WallSeconds:       st.WallSeconds,
		EventsPerSecond:   st.EventsPerSecond,
		Requests:          requests,
		RequestsPerSecond: reqPerSec,
		AllocMB:           float64(st.AllocBytes) / (1 << 20),
		GCCycles:          st.GCCycles,
	}
	base, ok := readSimstatsBaseline(*benchout)
	if ok && *benchFloor > 0 {
		if diff := baselineMismatch(base, record); diff != "" {
			return fmt.Errorf(
				"the recorded baseline measured other work (%s), so its requests/s are no reference (baseline left unchanged; -bench-floor 0 records this run without comparing)",
				diff)
		}
		ratio := reqPerSec / base.RequestsPerSecond
		if ratio < *benchFloor {
			return fmt.Errorf(
				"%.3gk requests/s is %.0f%% of the recorded baseline %.3gk, below the enforced %.0f%% floor (baseline left unchanged; override with -bench-floor, 0 records without comparing)",
				reqPerSec/1e3, 100*ratio,
				base.RequestsPerSecond/1e3, 100**benchFloor)
		}
		fmt.Printf("baseline: %.3gk requests/s recorded, this run %.2fx (floor %.0f%%)\n",
			base.RequestsPerSecond/1e3, ratio, 100**benchFloor)
	}
	if err := benchrec.Update(*benchout, "simstats", record); err != nil {
		return err
	}
	fmt.Printf("recorded in %s\n", *benchout)
	return nil
}

func matrix(args []string) error {
	fs := flag.NewFlagSet("matrix", flag.ContinueOnError)
	duration := fs.Duration("duration", 45*time.Second, "measured duration per cell")
	parallel := parallelFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	fmt.Println("running the full CTQO grid (4 architectures × 2 tiers × 2 kinds)...")
	cells, err := core.RunCTQOMatrix(core.MatrixConfig{
		Duration: *duration,
		Workers:  *parallel,
	})
	// A failing cell no longer aborts the grid: print what completed,
	// then report the joined per-cell errors.
	fmt.Print(core.FormatMatrix(cells))
	return err
}
