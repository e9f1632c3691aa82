package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"ctqosim/internal/benchrec"
	"ctqosim/internal/core"
	"ctqosim/internal/scenario"
	"ctqosim/internal/span"
)

// runScenario runs one scenario reference and tells the Section IV
// story of the run: the summary, the CTQO report, the span breakdown,
// the response-time histogram and the slowest tail exemplars, then the
// files it wrote and the file's assertions. Stdout depends on the
// simulation alone; the wall clock shows only under -simstats and in the
// -benchout record. Under -json stdout is the JSON document alone, and
// the files are written all the same.
func runScenario(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	duration := fs.Duration("duration", 0, "override measured duration")
	seed := fs.Int64("seed", 0, "override RNG seed")
	asJSON := fs.Bool("json", false, "emit the machine-readable summary instead of text (files are still written)")
	csvDir := fs.String("csv", "", "write timeline CSVs into this directory")
	spans := fs.Bool("spans", false, "record per-request span traces and print the critical-path breakdown")
	exemplars := fs.Int("exemplars", 0, "print the span trees of the N slowest tail exemplars (turns spans on)")
	perfetto := fs.String("perfetto", "",
		"write the tail exemplars (or, with none, the reservoir) as Chrome trace-event JSON, loadable at ui.perfetto.dev (turns spans on)")
	waterfall := fs.String("waterfall", "", "write the slowest tail exemplar as a waterfall SVG (turns spans on)")
	retention := fs.String("retention", "", "telemetry retention: all (default, exact) or bounded (constant-memory)")
	withStats := fs.Bool("simstats", false, "profile the DES kernel and report events/second")
	benchout := fs.String("benchout", "",
		"record the run's wall clock under the \"scenario_run\" key of this JSON file")
	cpuProf, memProf := profileFlags(fs)

	// The reference comes first, the flags after it.
	ref, rest := "", args
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		ref, rest = args[0], args[1:]
	}
	if err := parseFlags(fs, rest); err != nil {
		return err
	}
	if ref == "" {
		return fmt.Errorf("usage: ntierlab run <name|file> [flags]")
	}
	switch {
	case *exemplars < 0:
		return fmt.Errorf("exemplars: want a count of 0 or more, got %d", *exemplars)
	case *exemplars > 0 && *asJSON:
		return fmt.Errorf("-exemplars prints span trees as text; it cannot go with -json")
	}
	ret, err := parseRetention(*retention)
	if err != nil {
		return err
	}
	cfg, doc, err := core.ResolveScenario(ref)
	if err != nil {
		return err
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *spans || *exemplars > 0 || *perfetto != "" || *waterfall != "" {
		cfg.Spans = true
	}
	cfg.Retention = ret
	cfg.SimStats = *withStats

	stopProf, err := startProfiling(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	start := time.Now()
	res, err := core.New(cfg).Run()
	if err != nil {
		return err
	}
	wall := time.Since(start)

	// Under -json the lines naming the written files are dropped.
	notes := io.Writer(os.Stdout)
	if *asJSON {
		notes = io.Discard
		data, err := res.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		printRun(res, *exemplars)
	}
	if *csvDir != "" {
		if err := core.WriteCSVs(res, *csvDir); err != nil {
			return err
		}
		fmt.Fprintf(notes, "timelines written to %s\n", *csvDir)
	}
	if *perfetto != "" {
		// With no tail exemplar, the seeded reservoir of normal traces.
		traces := res.TailExemplars(0)
		if len(traces) == 0 {
			traces = res.Spans.Reservoir()
		}
		if err := writeFile(*perfetto, func(w io.Writer) error {
			return span.WriteTraceEvents(w, traces)
		}); err != nil {
			return err
		}
		fmt.Fprintf(notes, "wrote %d trace(s) to %s — load it at https://ui.perfetto.dev\n", len(traces), *perfetto)
	}
	if *waterfall != "" {
		ex := res.TailExemplars(1)
		if len(ex) == 0 {
			return fmt.Errorf("waterfall: no tail exemplar to render")
		}
		if err := writeFile(*waterfall, func(w io.Writer) error {
			return core.WriteWaterfallSVG(w, ex[0])
		}); err != nil {
			return err
		}
		fmt.Fprintf(notes, "wrote waterfall of request %d (%v) to %s\n",
			ex[0].RequestID, ex[0].ResponseTime().Round(time.Millisecond), *waterfall)
	}
	if *benchout != "" {
		if err := recordScenarioRun(*benchout, res, doc, wall); err != nil {
			return err
		}
		fmt.Fprintf(notes, "wall clock recorded in %s\n", *benchout)
	}
	return evaluateAssertions(doc, res, *asJSON)
}

// printRun renders a finished run as text: the summary, the kernel
// self-profile, the CTQO report and its verdict, the span breakdown and
// its verdict, the per-second histogram and the n slowest exemplars.
func printRun(res *core.Result, exemplars int) {
	fmt.Println(res.Summary())
	if res.SimStats != nil {
		fmt.Println("kernel self-profile:")
		fmt.Println("  " + strings.ReplaceAll(res.SimStats.String(), "\n", "\n  "))
		fmt.Println()
	}
	if res.Report != nil {
		fmt.Println(res.Report)
		if eps := res.Report.CTQOEpisodes(); len(eps) == 0 {
			fmt.Println("verdict: no CTQO — the millibottlenecks were absorbed without drops")
		} else {
			fmt.Printf("verdict: %d CTQO episode(s); see the classification above\n", len(eps))
		}
	}
	if res.SpanBreakdown != nil {
		fmt.Println(res.SpanBreakdown)
		printAttribution(res.SpanBreakdown)
	}
	printHistogram(res)
	if exemplars > 0 {
		printExemplars(res, exemplars)
	}
}

// printAttribution states the tail verdict: how much of the slowest
// requests' time was waiting rather than working.
func printAttribution(b *span.Breakdown) {
	row := b.VLRT
	if row.Count == 0 {
		row = b.P999
	}
	fmt.Printf("span verdict: %s requests spent %.1f%% of their time waiting "+
		"(%.1f%% in retransmission gaps, %.1f%% in queues/pools) and only "+
		"%.1f%% in service\n",
		row.Label, 100*row.WaitShare(),
		100*row.Share(span.KindRetransmit),
		100*(row.Share(span.KindQueueWait)+row.Share(span.KindPoolWait)),
		100*row.Share(span.KindService))
}

// printHistogram renders the Fig. 1 style per-second summary.
func printHistogram(res *core.Result) {
	h := res.Histogram()
	perSecond := make(map[int]int64)
	for _, i := range h.NonZeroBins() {
		perSecond[int(h.BinStart(i)/time.Second)] += h.Count(i)
	}
	secs := make([]int, 0, len(perSecond))
	for s := range perSecond {
		secs = append(secs, s)
	}
	sort.Ints(secs)
	fmt.Println("response-time frequency by second (semi-log shape of Fig. 1):")
	for _, s := range secs {
		fmt.Printf("  [%2d-%2ds) %8d\n", s, s+1, perSecond[s])
	}
}

// printExemplars renders the n slowest kept span trees, cross-linking each
// retransmission gap to the dropping server.
func printExemplars(res *core.Result, n int) {
	ex := res.TailExemplars(n)
	if len(ex) == 0 {
		fmt.Println("no tail exemplars (no request exceeded the tail threshold)")
		return
	}
	fmt.Printf("slowest %d of %d kept tail exemplars:\n\n", len(ex), len(res.TailExemplars(0)))
	for _, t := range ex {
		fmt.Print(t.Tree())
		if who := dropSummary(t); who != "" {
			fmt.Printf("  ^ retransmission gaps caused by: %s\n", who)
		}
		fmt.Println()
	}
}

// dropSummary aggregates a trace's retransmission gaps by dropping server.
func dropSummary(t *span.Trace) string {
	counts := map[string]int{}
	for _, s := range t.Spans() {
		if s.Kind == span.KindRetransmit {
			counts[s.Tier]++
		}
	}
	if len(counts) == 0 {
		return ""
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s (%d gap(s))", name, counts[name]))
	}
	return strings.Join(parts, ", ")
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// scenarioRunRecord is the "scenario_run" entry of the keyed bench file:
// the wall clock of one declarative scenario run, the reference point for
// scenario-engine overhead.
type scenarioRunRecord struct {
	Benchmark       string  `json:"benchmark"`
	Scenario        string  `json:"scenario"`
	Seed            int64   `json:"seed"`
	DurationSeconds float64 `json:"duration_seconds"`
	Events          int     `json:"events"`
	Assertions      int     `json:"assertions"`
	CPUs            int     `json:"cpus"`
	WallSeconds     float64 `json:"wall_seconds"`
	SimSecondsPerS  float64 `json:"sim_seconds_per_wall_second"`
}

// recordScenarioRun writes the run's wall clock under the "scenario_run"
// key of the keyed bench file.
func recordScenarioRun(path string, res *core.Result, doc *scenario.Document, wall time.Duration) error {
	record := scenarioRunRecord{
		Benchmark:       "ntierlab-scenario-run",
		Scenario:        res.Config.Name,
		Seed:            res.Config.Seed,
		DurationSeconds: res.Config.Duration.Seconds(),
		Events:          len(doc.Events),
		Assertions:      len(doc.Assertions),
		CPUs:            runtime.NumCPU(),
		WallSeconds:     wall.Seconds(),
		SimSecondsPerS:  res.End.Seconds() / wall.Seconds(),
	}
	return benchrec.Update(path, "scenario_run", record)
}

// evaluateAssertions renders and checks a document's assertion section
// against a finished run; an empty section is a pass.
func evaluateAssertions(doc *scenario.Document, res *core.Result, quiet bool) error {
	if len(doc.Assertions) == 0 {
		return nil
	}
	report := scenario.Evaluate(doc.Assertions, res.Outcome())
	if !quiet {
		fmt.Println("assertions:")
		fmt.Println(report)
	}
	if !report.Pass() {
		return fmt.Errorf("%d of %d assertions failed", report.Failed(), len(report.Results))
	}
	return nil
}
