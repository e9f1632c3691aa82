// Command ctqo-analyze runs a scenario with full transport tracing and
// prints the micro-level event analysis of Section IV: every detected
// millibottleneck, the drops it caused, and its CTQO classification —
// plus, with -spans/-breakdown/-perfetto, the per-request span-tree view
// of the same story.
//
// -scenario names a registered scenario (see ntierlab list) or a scenario
// file, resolved by core.ResolveScenario as ntierlab resolves it: a path
// that exists on disk is a file. The 16 CTQO matrix cells, one per
// architecture, millibottleneck kind and tier, are files under
// internal/core/scenarios/cells/. -seed, -duration and -clients override
// the scenario's values.
//
// Usage:
//
//	ctqo-analyze -scenario fig3 [-seed 1] [-duration 60s] [-clients 7000]
//	ctqo-analyze -scenario internal/core/scenarios/cells/nx2-cpu-db.json
//	ctqo-analyze -scenario fig3 -breakdown
//	ctqo-analyze -scenario fig3 -spans -exemplars 3
//	ctqo-analyze -scenario fig3 -perfetto trace.json -waterfall tail.svg
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ctqosim/internal/core"
	"ctqosim/internal/span"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ctqo-analyze:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ctqo-analyze", flag.ContinueOnError)
	scenarioRef := fs.String("scenario", "", "registered scenario (see ntierlab list) or scenario file to run")
	seed := fs.Int64("seed", 0, "override the scenario's RNG seed")
	duration := fs.Duration("duration", 0, "override the scenario's measured duration")
	clients := fs.Int("clients", 0, "override the scenario's steady client population")
	spans := fs.Bool("spans", false, "print span trees of the slowest tail exemplars")
	exemplars := fs.Int("exemplars", 3, "how many tail exemplars -spans prints")
	breakdown := fs.Bool("breakdown", false, "print the critical-path breakdown table (per-decile % in queue wait / service / retransmission)")
	perfetto := fs.String("perfetto", "", "write tail-exemplar traces as Chrome trace-event JSON (load at ui.perfetto.dev)")
	waterfall := fs.String("waterfall", "", "write the slowest exemplar as a waterfall SVG")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenarioRef == "" {
		return fmt.Errorf("no scenario given: -scenario <name|file>")
	}
	cfg, _, err := core.ResolveScenario(*scenarioRef)
	if err != nil {
		return err
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *clients > 0 {
		cfg.Clients = *clients
	}
	if *spans || *breakdown || *perfetto != "" || *waterfall != "" {
		cfg.Spans = true
	}

	res, err := core.New(cfg).Run()
	if err != nil {
		return err
	}
	fmt.Println(res.Summary())
	if res.Report != nil {
		fmt.Println(res.Report)
		if eps := res.Report.CTQOEpisodes(); len(eps) == 0 {
			fmt.Println("verdict: no CTQO — the millibottlenecks were absorbed without drops")
		} else {
			fmt.Printf("verdict: %d CTQO episode(s); see the classification above\n", len(eps))
		}
	}

	if *breakdown {
		fmt.Println(res.SpanBreakdown)
		printAttribution(res)
	}
	if *spans {
		printExemplars(res, *exemplars)
	}
	if *perfetto != "" {
		if err := writePerfetto(res, *perfetto); err != nil {
			return err
		}
	}
	if *waterfall != "" {
		if err := writeWaterfall(res, *waterfall); err != nil {
			return err
		}
	}
	return nil
}

// printAttribution states the tail verdict: how much of the slowest
// requests' time was waiting rather than working.
func printAttribution(res *core.Result) {
	b := res.SpanBreakdown
	if b == nil {
		fmt.Println("span verdict: no traces recorded")
		return
	}
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

// writePerfetto exports all kept tail exemplars (or the reservoir when the
// tail is empty) as Chrome trace-event JSON.
func writePerfetto(res *core.Result, path string) error {
	traces := res.TailExemplars(0)
	if len(traces) == 0 {
		traces = res.Spans.Reservoir()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := span.WriteTraceEvents(f, traces); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("wrote %d trace(s) to %s — load it at https://ui.perfetto.dev\n",
		len(traces), path)
	return f.Close()
}

// writeWaterfall renders the slowest exemplar as an SVG.
func writeWaterfall(res *core.Result, path string) error {
	ex := res.TailExemplars(1)
	if len(ex) == 0 {
		return fmt.Errorf("no tail exemplar to render")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := core.WriteWaterfallSVG(f, ex[0]); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("wrote waterfall of request %d (%v) to %s\n",
		ex[0].RequestID, ex[0].ResponseTime().Round(time.Millisecond), path)
	return f.Close()
}
