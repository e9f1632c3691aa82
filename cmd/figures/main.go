// Command figures regenerates every table and figure of the paper's
// evaluation into an output directory: per-figure CSV timelines plus a
// paper-vs-measured summary (the source of EXPERIMENTS.md).
//
// The per-figure simulations are independent seed-deterministic DES runs,
// so they are fanned across a core.Runner worker pool (-parallel N;
// default GOMAXPROCS, 1 = strictly serial). Results are assembled in
// figure order regardless of scheduling, so every generated file is
// byte-identical whatever the pool size.
//
// Usage:
//
//	figures [-out out] [-fig 3] [-quick] [-parallel N] [-benchout file]
//	        [-simstats] [-cpuprofile file] [-memprofile file]
//
// -simstats profiles the DES kernel of each figure's run and prints the
// events/second to stdout only — never into summary.txt, whose bytes
// must stay identical across pool sizes. -cpuprofile/-memprofile write
// pprof profiles for the whole regeneration.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ctqosim/internal/benchrec"
	"ctqosim/internal/core"
	"ctqosim/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// figure couples a paper figure with its registered scenario and the
// checks that the paper's qualitative claims hold.
type figure struct {
	id       string
	paper    string // what the paper reports
	scenario string // name in core.Scenarios()
	quick    time.Duration
	render   func(res *core.Result) string
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	outDir := fs.String("out", "out", "output directory")
	only := fs.String("fig", "", "regenerate only this figure id (e.g. 3, 1a, 12)")
	quick := fs.Bool("quick", false, "shorter runs for smoke checks")
	parallel := fs.Int("parallel", 0,
		"simulation worker pool size; 0 = GOMAXPROCS, 1 = serial (output is byte-identical either way)")
	benchout := fs.String("benchout", "",
		"run the regeneration twice (serial, then -parallel) and record the wall-clock comparison as JSON in this file")
	simstats := fs.Bool("simstats", false,
		"profile the DES kernel per figure and print events/second (stdout only; summary.txt bytes are unchanged)")
	cpuProf := fs.String("cpuprofile", "", "write a CPU pprof profile to this file")
	memProf := fs.String("memprofile", "", "write a heap pprof profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: the flag set has printed the usage
		}
		return err
	}
	// Parsing stops at a stray word, which would drop the flags after it.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "figures: profiling:", err)
		}
	}()
	if *benchout != "" {
		return benchParallel(*benchout, *outDir, *only, *quick, *parallel, *simstats)
	}
	return regenerate(*outDir, *only, *quick, *parallel, *simstats)
}

// regenerate runs the selected figures on a pool of `workers` and writes
// CSVs, SVGs and the summary report. All simulation happens on the pool;
// files and report lines are emitted in fixed figure order afterwards.
// With simstats, each run self-profiles its DES kernel; that report goes
// to stdout only, so every generated file stays byte-identical.
func regenerate(outDir, only string, quick bool, workers int, simstats bool) error {
	runner := core.NewRunner(workers)

	scenarios := core.Scenarios()
	var figs []figure
	var cfgs []core.Config
	for _, fig := range figures() {
		if only != "" && fig.id != only {
			continue
		}
		cfg, ok := scenarios[fig.scenario]
		if !ok {
			return fmt.Errorf("figure %s: unknown scenario %q", fig.id, fig.scenario)
		}
		if quick {
			cfg.Duration = fig.quick
		}
		cfg.SimStats = simstats
		figs = append(figs, fig)
		cfgs = append(cfgs, cfg)
	}

	var report strings.Builder
	report.WriteString("paper-vs-measured summary (regenerate with: go run ./cmd/figures)\n")
	fmt.Fprintf(&report, "generated for simulated durations%s\n\n",
		map[bool]string{true: " (quick mode)", false: ""}[quick])

	results := make([]*core.Result, len(figs))
	walls := make([]time.Duration, len(figs))
	err := runner.Do(len(figs), func(i int) error {
		start := time.Now()
		res, err := core.New(cfgs[i]).Run()
		if err != nil {
			return fmt.Errorf("figure %s: %w", figs[i].id, err)
		}
		walls[i] = time.Since(start).Round(time.Millisecond)
		results[i] = res
		if res.SimStats != nil {
			fmt.Printf("figure %s done (%v) — %d events, %.3gM events/s, peak pending %d\n",
				figs[i].id, walls[i], res.SimStats.EventsExecuted,
				res.SimStats.EventsPerSecond/1e6, res.SimStats.PeakPending)
		} else {
			fmt.Printf("figure %s done (%v)\n", figs[i].id, walls[i])
		}
		return nil
	})
	if err != nil {
		return err
	}

	for i, fig := range figs {
		dir := filepath.Join(outDir, "fig"+fig.id)
		if err := core.WriteCSVs(results[i], dir); err != nil {
			return fmt.Errorf("figure %s: %w", fig.id, err)
		}
		if err := core.WriteSVGs(results[i], dir); err != nil {
			return fmt.Errorf("figure %s: %w", fig.id, err)
		}
		fmt.Fprintf(&report, "== Figure %s (%v wall)\n", fig.id, walls[i])
		fmt.Fprintf(&report, "paper:    %s\n", fig.paper)
		fmt.Fprintf(&report, "measured: %s\n\n", fig.render(results[i]))
	}

	if only == "" || only == "12" {
		start := time.Now()
		rows, err := runner.Figure12(nil)
		if err != nil {
			return fmt.Errorf("figure 12: %w", err)
		}
		if err := writeFig12CSV(filepath.Join(outDir, "fig12", "throughput.csv"), rows); err != nil {
			return err
		}
		fmt.Fprintf(&report, "== Figure 12 (%v wall)\n", time.Since(start).Round(time.Millisecond))
		report.WriteString("paper:    sync(2000 threads) decays 1159->374 req/s over concurrency 100->1600; async wins at high concurrency\n")
		report.WriteString("measured: concurrency sync async\n")
		for _, p := range rows {
			fmt.Fprintf(&report, "          %6d %6.0f %6.0f\n", p.Concurrency, p.Sync, p.Async)
		}
		report.WriteString("\n")
		fmt.Printf("figure 12 done (%v)\n", time.Since(start).Round(time.Millisecond))
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	summaryPath := filepath.Join(outDir, "summary.txt")
	if err := os.WriteFile(summaryPath, []byte(report.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("\n%s\nsummary written to %s\n", report.String(), summaryPath)
	return nil
}

// benchParallel times the full regeneration serially and then on the
// pool, and records the comparison — the repo's parallel-runner perf
// trajectory — as JSON (see BENCH_parallel.json at the repo root).
func benchParallel(benchPath, outDir, only string, quick bool, workers int, simstats bool) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	serialStart := time.Now()
	if err := regenerate(outDir, only, quick, 1, simstats); err != nil {
		return fmt.Errorf("serial pass: %w", err)
	}
	serial := time.Since(serialStart)

	parallelStart := time.Now()
	if err := regenerate(outDir, only, quick, workers, simstats); err != nil {
		return fmt.Errorf("parallel pass: %w", err)
	}
	par := time.Since(parallelStart)

	record := struct {
		Benchmark       string  `json:"benchmark"`
		Quick           bool    `json:"quick"`
		CPUs            int     `json:"cpus"`
		Workers         int     `json:"workers"`
		SerialSeconds   float64 `json:"serial_seconds"`
		ParallelSeconds float64 `json:"parallel_seconds"`
		Speedup         float64 `json:"speedup"`
	}{
		Benchmark:       "figures-regeneration",
		Quick:           quick,
		CPUs:            runtime.NumCPU(),
		Workers:         workers,
		SerialSeconds:   serial.Seconds(),
		ParallelSeconds: par.Seconds(),
		Speedup:         serial.Seconds() / par.Seconds(),
	}
	if err := benchrec.Update(benchPath, "figures_regeneration", record); err != nil {
		return err
	}
	fmt.Printf("\nserial %v, parallel(%d) %v — %.2fx; recorded in %s\n",
		serial.Round(time.Millisecond), workers, par.Round(time.Millisecond),
		record.Speedup, benchPath)
	return nil
}

// figures lists the regenerated figures in report order, each with the
// measured duration that -quick runs it for.
func figures() []figure {
	histRender := func(res *core.Result) string {
		name, util := res.HighestMeanUtil()
		return fmt.Sprintf("throughput %.0f req/s, highest avg CPU %.0f%% (%s), clusters at %v s, VLRT %d",
			res.Throughput, util*100, name, res.Histogram().ModeClusters(0.0001), res.VLRTCount)
	}
	ctqoRender := func(res *core.Result) string {
		drops := make([]string, 0, len(res.DropsPerServer))
		for _, tier := range res.System.TierNames() {
			if d := res.DropsPerServer[tier]; d > 0 {
				drops = append(drops, fmt.Sprintf("%s=%d", tier, d))
			}
		}
		dropsStr := "none"
		if len(drops) > 0 {
			dropsStr = strings.Join(drops, ", ")
		}
		episodes := ""
		if res.Report != nil {
			dirs := make(map[string]int)
			for _, ep := range res.Report.CTQOEpisodes() {
				dirs[ep.Direction.String()]++
			}
			names := make([]string, 0, len(dirs))
			for d := range dirs {
				names = append(names, d)
			}
			sort.Strings(names)
			for _, d := range names {
				episodes += fmt.Sprintf("; %d× %s", dirs[d], d)
			}
		}
		return fmt.Sprintf("drops: %s; VLRT %d%s", dropsStr, res.VLRTCount, episodes)
	}

	return []figure{
		{
			id:       "1a",
			paper:    "WL 4000: 572 req/s, 43% CPU, multi-modal peaks near 0/3/6/9s",
			scenario: "fig1-wl4000",
			quick:    60 * time.Second,
			render:   histRender,
		},
		{
			id:       "1b",
			paper:    "WL 7000: 990 req/s, 75% CPU, multi-modal peaks near 0/3/6/9s",
			scenario: "fig1-wl7000",
			quick:    60 * time.Second,
			render:   histRender,
		},
		{
			id:       "1c",
			paper:    "WL 8000: 1103 req/s, 85% CPU, multi-modal peaks near 0/3/6/9s",
			scenario: "fig1-wl8000",
			quick:    60 * time.Second,
			render:   histRender,
		},
		{
			id:       "3",
			paper:    "upstream CTQO: Tomcat millibottlenecks fill Apache past 278 (428 after spare process); drops and VLRT at Apache",
			scenario: "fig3",
			quick:    45 * time.Second,
			render:   ctqoRender,
		},
		{
			id:       "5",
			paper:    "I/O millibottlenecks in MySQL every 30s; upstream CTQO chain MySQL->Tomcat->Apache; drops at Apache",
			scenario: "fig5",
			quick:    70 * time.Second,
			render:   ctqoRender,
		},
		{
			id:       "7",
			paper:    "NX=1: no drops at Nginx; downstream CTQO drops at Tomcat (MaxSysQDepth 293)",
			scenario: "fig7",
			quick:    45 * time.Second,
			render:   ctqoRender,
		},
		{
			id:       "8",
			paper:    "NX=2: MySQL millibottleneck; downstream CTQO drops at MySQL (MaxSysQDepth 228)",
			scenario: "fig8",
			quick:    45 * time.Second,
			render:   ctqoRender,
		},
		{
			id:       "9",
			paper:    "NX=2: XTomcat millibottleneck; batch release overflows MySQL (228); drops at MySQL",
			scenario: "fig9",
			quick:    45 * time.Second,
			render:   ctqoRender,
		},
		{
			id:       "10",
			paper:    "NX=3: same CPU millibottleneck; no CTQO, no drops",
			scenario: "fig10",
			quick:    45 * time.Second,
			render:   ctqoRender,
		},
		{
			id:       "11",
			paper:    "NX=3: I/O millibottleneck in XMySQL; no CTQO, no drops",
			scenario: "fig11",
			quick:    70 * time.Second,
			render:   ctqoRender,
		},
		{
			id:       "V-B-omitted",
			paper:    "NX=1, MySQL millibottleneck: upstream CTQO, drops at Tomcat (graphs omitted in the paper)",
			scenario: "nx1-mysql",
			quick:    45 * time.Second,
			render:   ctqoRender,
		},
		{
			id:       "abstract",
			paper:    "all-async system shows no CTQO at utilization as high as 83%",
			scenario: "async-highutil",
			quick:    45 * time.Second,
			render:   ctqoRender,
		},
	}
}

func writeFig12CSV(path string, rows []core.ThroughputPoint) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("concurrency,sync_req_s,async_req_s\n")
	for _, p := range rows {
		fmt.Fprintf(&b, "%d,%.1f,%.1f\n", p.Concurrency, p.Sync, p.Async)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
