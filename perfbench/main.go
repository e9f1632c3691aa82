// Command perfbench is the repository benchmark. It drives three
// workloads through the entry points the CLIs use (core.Scenarios()[name]
// into core.New(cfg).Run(), and core.NewRunner(2).Sweep), checks their
// outputs, and prints one JSON line last: the end-to-end metrics, or with
// -trace 1 the per-layer metrics of a profiled run.
//
//	bash perfbench/run.sh --workload ctqo-sync --seed 1 --seconds 35 --trace 0
//
// README.md describes the workloads, the metrics and the host's noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"ctqosim/internal/core"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// maxSeed keeps every derived experiment seed far from overflow.
const maxSeed = 1 << 40

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: ctqo-sync, ctqo-telemetry or async-sweep")
	seed := fs.Int64("seed", 1, "benchmark seed; the experiment seeds derive from it")
	seconds := fs.Int("seconds", 35, "seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
	child := fs.Int("child", -1, "internal: run only experiment `n` of the seed's list and print its report")
	probe := fs.Bool("probe", false, "internal: with -child, run the untimed probe of the experiment instead")
	calibrate := fs.Bool("calibrate", false, "internal: run the calibration kernel and print the host speed")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, err := findWorkload(*name)
	switch {
	case err != nil:
		return 2, err
	case *seed < 0 || *seed >= maxSeed:
		return 2, fmt.Errorf("-seed %d out of range [0, %d)", *seed, int64(maxSeed))
	case *seconds < 1:
		return 2, fmt.Errorf("-seconds %d: want at least 1", *seconds)
	case *trace != 0 && *trace != 1:
		return 2, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	var cfgs []core.Config
	for _, s := range w.experimentSeeds(*seed) {
		cfg, err := w.resolve(s)
		if err != nil {
			return 2, err
		}
		cfgs = append(cfgs, cfg)
	}
	if *calibrate {
		fmt.Fprintln(stdout, hostSpeed(w.concurrency()))
		return 0, nil
	}
	if *child >= 0 {
		if *child >= len(cfgs) {
			return 2, fmt.Errorf("-child %d: the seed has %d experiments", *child, len(cfgs))
		}
		if err := runChild(w, cfgs[*child], *probe, stdout); err != nil {
			return 2, err
		}
		return 0, nil
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = traced(w, cfgs, budget, stdout)
	} else {
		res, err = untraced(w, *seed, cfgs, budget, stdout)
	}
	if err != nil {
		return 2, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// untraced measures the end-to-end metrics over experiments run one per
// child process: throughput per CPU second, bytes allocated per
// simulation, the processes' peak RSS and the set-up cost, each the
// median over the run. The parent itself simulates nothing.
func untraced(w workload, seed int64, cfgs []core.Config, budget time.Duration, stdout io.Writer) (result, error) {
	samples, rss := spawnLoop(w, seed, cfgs, budget)
	res, passed := summarize(w, samples, stdout)
	passed = inPhase(passed, phaseTimed)
	report(passed, stdout)
	if len(rss) > 0 {
		fmt.Fprintf(stdout, "peak RSS: children %.1f..%.1f MB; parent %.1f MB, a floor under each child's reading\n",
			slices.Min(rss)/mib, slices.Max(rss)/mib, float64(selfPeakRSS())/mib)
	}
	res.Metrics = map[string]metric{
		"sim_req_per_s": {medianOf(passed, sample.reqPerRefSecond), "req/s"},
		"alloc_mb":      {medianOf(passed, allocPerRun) / mib, "MB"},
		"max_rss_mb":    {median(rss) / mib, "MB"},
		"setup_s":       {medianOf(passed, sample.setupRefSeconds), "s"},
	}
	return res, nil
}

// traced measures the per-layer metrics: counts from one probe run, set-up
// spans, a profiler-off half of the budget as the overhead baseline, and
// a profiled half split by layer.
func traced(w workload, cfgs []core.Config, budget time.Duration, stdout io.Writer) (result, error) {
	probe, probeRes := w.probe(cfgs[0])
	m := make(map[string]metric)
	if probeRes != nil {
		countMetrics(probeRes, m)
	}
	base, err := loop(w, cfgs, budget/2, phaseTimed)
	if err != nil {
		return result{}, err
	}
	prof, att, err := profiled(w, cfgs, budget/2)
	if err != nil {
		return result{}, err
	}
	all := append([]sample{{seed: cfgs[0].Seed, out: probe}}, base...)
	res, passed := summarize(w, append(all, prof...), stdout)
	basePassed := inPhase(passed, phaseTimed)
	report(basePassed, stdout)

	baseRate := medianOf(basePassed, sample.reqPerCPUSecond)
	profRate := medianOf(prof, sample.reqPerCPUSecond)
	baseCost, _, _ := totals(basePassed)
	profCost, profReq, _ := totals(prof)
	perReq := func(v int64) float64 { return ratio(float64(v), float64(profReq)) }

	m["core.resolve_ms"] = metric{medianOf(basePassed, func(s sample) float64 { return s.resolve.Seconds() * s.speed }) * 1e3, "ms"}
	m["core.build_ms"] = metric{medianOf(basePassed, func(s sample) float64 { return s.build.Seconds() * s.speed }) * 1e3, "ms"}
	m["core.busy_cores"] = metric{ratio(baseCost.cpu.Seconds(), baseCost.wall.Seconds()), "cores"}
	m["gc.cycles"] = metric{medianOf(basePassed, func(s sample) float64 { return float64(s.cost.gcs) / float64(s.out.runs) }), "count"}
	m["profile_overhead"] = metric{1 - ratio(profRate, baseRate), "fraction"}
	m["profile.samples"] = metric{float64(att.samples), "count"}
	m["host.speed"] = metric{medianOf(basePassed, hostSpeedOf), "ratio"}
	for _, b := range buckets() {
		m[b+".cpu_ns_per_req"] = metric{perReq(att.cpuNS[b]), "ns/req"}
	}
	var layerBytes int64
	for _, l := range layers {
		m[l+".alloc_b_per_req"] = metric{perReq(att.allocB[l]), "B/req"}
		layerBytes += att.allocB[l]
	}
	coverage := ratio(float64(layerBytes), float64(profCost.alloc))
	m["profile.alloc_coverage"] = metric{coverage, "fraction"}
	if coverage < 1-allocTolerance || coverage > 1+allocTolerance {
		res.Correct = false
		fmt.Fprintf(stdout, "FAIL layer bytes are %.3f of TotalAlloc over the profiled runs, want within %.0f%%\n",
			coverage, 100*allocTolerance)
	}
	reportLayers(m, stdout)
	res.Metrics = m
	return res, nil
}

// allocTolerance bounds how far the bytes attributed to the nine layers
// may stray from the runtime's TotalAlloc over the same calls: the rest is
// sampling error and core's own small allocations.
const allocTolerance = 0.10

func allocPerRun(s sample) float64 { return float64(s.cost.alloc) / float64(s.out.runs) }

func hostSpeedOf(s sample) float64 { return s.speed }

// ratio is a/b, or 0 when b is 0 (no passed experiments to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics reads the per-layer counts from the probe run's public
// accessors. The live heap is read after a forced GC with res held.
func countMetrics(res *core.Result, m map[string]metric) {
	req := float64(max(res.Recorder.Len(), 1))
	if st := res.SimStats; st != nil {
		m["des.events_per_req"] = metric{float64(st.EventsExecuted) / req, "events/req"}
		m["des.peak_pending"] = metric{float64(st.PeakPending), "events"}
	}
	var drops, retransmits, gaveUp, failed int64
	for _, dst := range res.System.Transport.Destinations() {
		hs := res.System.Transport.Stats(dst)
		drops += hs.Dropped
		retransmits += hs.Retransmits
		gaveUp += hs.GaveUp
	}
	for _, srv := range res.System.Servers() {
		failed += srv.Stats().Failed
	}
	m["simnet.drops"] = metric{float64(drops), "count"}
	m["simnet.retransmits"] = metric{float64(retransmits), "count"}
	m["simnet.gave_up"] = metric{float64(gaveUp), "count"}
	m["server.failed"] = metric{float64(failed), "count"}
	m["metrics.footprint_kb"] = metric{float64(res.Recorder.MemoryFootprint()) / 1024, "KB"}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(res)
	m["runtime.heap_live_mb"] = metric{float64(ms.HeapAlloc) / mib, "MB"}
}

// summarize tallies the experiments, prints each seed's digest once and
// every problem, and returns the result skeleton and the passed samples.
func summarize(w workload, samples []sample, stdout io.Writer) (result, []sample) {
	passed, attempted, failed, problems := tally(samples)
	type seen struct {
		digest string
		n      int
	}
	digests := make(map[string]*seen)
	var keys []string
	for _, s := range passed {
		k := fmt.Sprintf("%020d/%d", s.seed, s.out.runs)
		if d, ok := digests[k]; ok {
			d.n++
			continue
		}
		digests[k] = &seen{digest: s.out.digest, n: 1}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "digest %s x%d: %s\n", w.name, digests[k].n, digests[k].digest)
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "FAIL %s: %s\n", w.name, p)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed}, passed
}

// report prints the benchmark's spans around its calls into the
// simulator, as measured (not scaled to the reference host speed): set-up
// medians and the timed run calls in CPU and wall time.
func report(timed []sample, stdout io.Writer) {
	if len(timed) == 0 {
		return
	}
	c, req, runs := totals(timed)
	fmt.Fprintf(stdout, "span resolve: %.3f ms CPU (median of %d block means)\n",
		medianOf(timed, func(s sample) float64 { return s.resolve.Seconds() })*1e3, len(timed))
	fmt.Fprintf(stdout, "span build: %.3f ms CPU per zero-horizon run (median of %d block means)\n",
		medianOf(timed, func(s sample) float64 { return s.build.Seconds() })*1e3, len(timed))
	fmt.Fprintf(stdout, "span run: %d calls, %d simulations, %d requests, %.2f s CPU, %.2f s wall (%.0f req/s wall, %.0f req/s CPU, %.2f busy cores, host speed %.3f of reference)\n",
		len(timed), runs, req, c.cpu.Seconds(), c.wall.Seconds(),
		float64(req)/c.wall.Seconds(), float64(req)/c.cpu.Seconds(), c.cpu.Seconds()/c.wall.Seconds(),
		medianOf(timed, hostSpeedOf))
}

// reportLayers prints the per-bucket CPU and byte shares.
func reportLayers(m map[string]metric, stdout io.Writer) {
	var cpuSum, allocSum float64
	for _, b := range buckets() {
		cpuSum += m[b+".cpu_ns_per_req"].Value
	}
	for _, l := range layers {
		allocSum += m[l+".alloc_b_per_req"].Value
	}
	for _, b := range buckets() {
		line := fmt.Sprintf("layer %-8s cpu %5.1f%%", b, 100*m[b+".cpu_ns_per_req"].Value/max(cpuSum, 1))
		if a, ok := m[b+".alloc_b_per_req"]; ok {
			line += fmt.Sprintf("  bytes %5.1f%%", 100*a.Value/max(allocSum, 1))
		}
		fmt.Fprintln(stdout, line)
	}
}
