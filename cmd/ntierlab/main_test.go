package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestScenarioTableComplete(t *testing.T) {
	all := scenarios()
	for _, name := range []string{
		"fig1-wl4000", "fig1-wl7000", "fig1-wl8000",
		"fig3", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11",
		"nx1-mysql", "async-highutil",
	} {
		if _, ok := all[name]; !ok {
			t.Errorf("scenario %q missing", name)
		}
	}
	for name, cfg := range all {
		if cfg.Name == "" {
			t.Errorf("scenario %q has no description", name)
		}
		if cfg.Clients == 0 {
			t.Errorf("scenario %q has no clients", name)
		}
	}
}

func TestRunDispatchErrors(t *testing.T) {
	dir := t.TempDir()
	tests := []struct {
		args []string
		want string
	}{
		{nil, "usage"},
		{[]string{"bogus"}, "unknown command"},
		{[]string{"run", "no-such-scenario"}, "unknown scenario"},
		{[]string{"run", "fig1-wl4000", "-duration", "1s",
			"-perfetto", filepath.Join(dir, "no-such-dir", "t.json")}, "no-such-dir"},
		// fig1-wl4000 keeps no request over the tail threshold in 5 s, so
		// there is no exemplar to draw.
		{[]string{"run", "fig1-wl4000", "-duration", "5s",
			"-waterfall", filepath.Join(dir, "w.svg")}, "no tail exemplar"},
		// Flag parsing stops at the first non-flag word, so a stray word
		// must fail rather than silently drop the flags after it. The
		// cheap flags go before the stray word, so a command that ignored
		// it would finish quickly and fail the case.
		{[]string{"run", "fig1-wl4000", "-duration", "1s", "typo", "-duration", "5s"}, "unexpected argument \"typo\""},
		{[]string{"sweep", "-scenario", "fig1-wl4000", "-seeds", "1", "-duration", "1s", "stray"}, "unexpected argument"},
		{[]string{"simstats", "-scenario", "fig1-wl4000", "-duration", "1s", "stray"}, "unexpected argument"},
		{[]string{"fig12", "-points", "100", "stray"}, "unexpected argument"},
		{[]string{"matrix", "-duration", "1s", "stray"}, "unexpected argument"},
		{[]string{"list", "extra"}, "unexpected argument"},
		{[]string{"scenario", "generate", "-seed", "1", "-o", filepath.Join(dir, "gen.json"), "stray"}, "unexpected argument"},
		{[]string{"predict"}, "usage"},
		{[]string{"predict", "x", "400ms", "278"}, "rate"},
		{[]string{"predict", "1000", "x", "278"}, "duration"},
		{[]string{"predict", "1000", "400ms", "x"}, "capacity"},
		{[]string{"fig12", "-points", "a,b"}, "points"},
		{[]string{"sweep"}, "usage"},
		{[]string{"sweep", "-scenario", "no-such-scenario"}, "unknown scenario"},
		{[]string{"sweep", "-scenario", "fig3", "-seeds", "nope"}, "seeds"},
		{[]string{"sweep", "-scenario", "fig3", "-seeds", "9..3"}, "empty range"},
		{[]string{"sweep", "-scenario", "fig3", "-seeds", "0"}, "positive count"},
		{[]string{"sweep", "-scenario", "fig3", "-retention", "sometimes"}, "retention"},
		{[]string{"simstats", "-scenario", "no-such-scenario"}, "unknown scenario"},
		{[]string{"simstats", "-retention", "sometimes"}, "retention"},
		{[]string{"run", "fig3", "-retention", "sometimes"}, "retention"},
	}
	for _, tt := range tests {
		err := run(tt.args)
		if err == nil {
			t.Errorf("run(%v): no error, want %q", tt.args, tt.want)
			continue
		}
		if !strings.Contains(err.Error(), tt.want) {
			t.Errorf("run(%v) = %q, want containing %q", tt.args, err, tt.want)
		}
	}
}

// TestRunJSONEchoesEffectiveConfig checks the reproducibility contract of
// -json: the emitted summary carries the resolved seed and every effective
// knob (defaults applied, kernel profile folded in), plus the span
// breakdown when -spans is on.
func TestRunJSONEchoesEffectiveConfig(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	// Drain concurrently so a summary larger than the pipe buffer cannot
	// block the writer.
	outCh := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(r)
		outCh <- data
	}()
	runErr := run([]string{"run", "fig1-wl4000", "-json", "-spans", "-duration", "10s"})
	w.Close()
	os.Stdout = old
	out := <-outCh
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}

	var got struct {
		Seed            int64 `json:"seed"`
		EffectiveConfig struct {
			Seed             int64   `json:"seed"`
			Clients          int     `json:"clients"`
			ThinkTimeSeconds float64 `json:"thinkTimeSeconds"`
			WarmUpSeconds    float64 `json:"warmUpSeconds"`
			DurationSeconds  float64 `json:"durationSeconds"`
			RTOSeconds       float64 `json:"rtoSeconds"`
			MaxAttempts      int     `json:"maxAttempts"`
			Spans            bool    `json:"spans"`
		} `json:"effectiveConfig"`
		SpanBreakdown *struct {
			Requests int `json:"requests"`
		} `json:"spanBreakdown"`
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	ec := got.EffectiveConfig
	if ec.Seed != 1 || got.Seed != ec.Seed {
		t.Errorf("resolved seed = %d (summary %d), want 1", ec.Seed, got.Seed)
	}
	if ec.Clients != 4000 {
		t.Errorf("clients = %d, want 4000", ec.Clients)
	}
	if ec.ThinkTimeSeconds != 7 {
		t.Errorf("thinkTimeSeconds = %v, want the defaulted 7", ec.ThinkTimeSeconds)
	}
	if ec.WarmUpSeconds != 10 {
		t.Errorf("warmUpSeconds = %v, want the defaulted 10", ec.WarmUpSeconds)
	}
	if ec.DurationSeconds != 10 {
		t.Errorf("durationSeconds = %v, want the overridden 10", ec.DurationSeconds)
	}
	if ec.RTOSeconds != 3 {
		t.Errorf("rtoSeconds = %v, want the default 3", ec.RTOSeconds)
	}
	if ec.MaxAttempts != 5 {
		t.Errorf("maxAttempts = %d, want the default 5", ec.MaxAttempts)
	}
	if !ec.Spans {
		t.Error("effectiveConfig.spans = false, want true under -spans")
	}
	if got.SpanBreakdown == nil || got.SpanBreakdown.Requests == 0 {
		t.Error("spanBreakdown missing or empty under -spans")
	}
}

// TestParallelFlagOnMultiRunSubcommands exercises the -parallel worker
// pool end to end on the two cheap multi-run subcommands (the matrix is
// covered by the core tests; its wiring is identical).
func TestParallelFlagOnMultiRunSubcommands(t *testing.T) {
	if err := run([]string{"fig12", "-points", "100", "-parallel", "2"}); err != nil {
		t.Fatalf("fig12 -parallel: %v", err)
	}
	if err := run([]string{"sweep", "-scenario", "fig1-wl4000", "-seeds", "2", "-duration", "5s", "-shard", "1", "-parallel", "2"}); err != nil {
		t.Fatalf("sweep -parallel: %v", err)
	}
}

func TestParseSeedRange(t *testing.T) {
	tests := []struct {
		in    string
		start int64
		count int
		fails bool
	}{
		{"1..500", 1, 500, false},
		{"42..42", 42, 1, false},
		{"7", 1, 7, false},
		{" 10 .. 12 ", 10, 3, false},
		{"-3..2", -3, 6, false},
		{"9..3", 0, 0, true},
		{"", 0, 0, true},
		{"a..b", 0, 0, true},
		{"-1", 0, 0, true},
	}
	for _, tt := range tests {
		start, count, err := parseSeedRange(tt.in)
		if tt.fails {
			if err == nil {
				t.Errorf("parseSeedRange(%q): no error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSeedRange(%q): %v", tt.in, err)
		} else if start != tt.start || count != tt.count {
			t.Errorf("parseSeedRange(%q) = %d, %d; want %d, %d", tt.in, start, count, tt.start, tt.count)
		}
	}
}

// TestSweepSubcommand exercises the sweep CLI end to end: the text report,
// a CSV file, and the benchout record (which is keyed JSON).
func TestSweepSubcommand(t *testing.T) {
	dir := t.TempDir()
	csvPath := dir + "/sweep.csv"
	if err := run([]string{"sweep", "-scenario", "fig1-wl4000", "-seeds", "1..4",
		"-duration", "5s", "-shard", "2", "-parallel", "2", "-csv", csvPath}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("sweep wrote no CSV: %v", err)
	}
	if !strings.Contains(string(csv), "vlrt_per_run") {
		t.Fatalf("CSV missing metrics:\n%s", csv)
	}

	benchPath := dir + "/BENCH_parallel.json"
	if err := run([]string{"sweep", "-scenario", "fig1-wl4000", "-seeds", "2",
		"-duration", "5s", "-parallel", "2", "-benchout", benchPath}); err != nil {
		t.Fatalf("sweep -benchout: %v", err)
	}
	data, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatalf("benchout wrote no record: %v", err)
	}
	var rec map[string]struct {
		Benchmark string  `json:"benchmark"`
		Seeds     int     `json:"seeds"`
		Speedup   float64 `json:"speedup"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("benchout record does not parse: %v\n%s", err, data)
	}
	if rec["sweep"].Benchmark != "ntierlab-sweep" || rec["sweep"].Seeds != 2 || rec["sweep"].Speedup <= 0 {
		t.Fatalf("sweep record wrong: %+v", rec)
	}
}

// TestSimstatsSubcommand exercises the kernel self-profiling CLI end to
// end: the benchout record, the enforced baseline gate on a second run
// (pass at the default floor, fail at an unreachable one, fail against a
// baseline of another duration, record without comparing at zero), and
// the pprof flag.
func TestSimstatsSubcommand(t *testing.T) {
	dir := t.TempDir()
	benchPath := dir + "/BENCH_parallel.json"
	profPath := dir + "/cpu.pprof"
	// The gated runs simulate 240 s, a quarter second to a second of
	// wall time each depending on the host: at 60 s a run took 60–250 ms,
	// so a few descheduled milliseconds could halve the second run's
	// requests/s against the first. A 5 s run lasts some 25 ms, short
	// enough that a busy CPU alone can halve its requests/s.
	args := []string{"simstats", "-scenario", "fig1-wl4000", "-duration", "240s",
		"-benchout", benchPath, "-cpuprofile", profPath}
	if err := run(args); err != nil {
		t.Fatalf("simstats: %v", err)
	}
	data, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatalf("benchout wrote no record: %v", err)
	}
	var rec map[string]struct {
		Benchmark         string  `json:"benchmark"`
		Scenario          string  `json:"scenario"`
		Retention         string  `json:"retention"`
		EventsExecuted    uint64  `json:"events_executed"`
		EventsPerSecond   float64 `json:"events_per_second"`
		PeakPending       int     `json:"peak_pending"`
		Requests          int     `json:"requests"`
		RequestsPerSecond float64 `json:"requests_per_second"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("benchout record does not parse: %v\n%s", err, data)
	}
	got := rec["simstats"]
	if got.Benchmark != "ntierlab-simstats" || got.Scenario != "fig1-wl4000" ||
		got.Retention != "bounded" {
		t.Fatalf("simstats record wrong: %+v", got)
	}
	if got.EventsExecuted == 0 || got.EventsPerSecond <= 0 || got.PeakPending <= 0 {
		t.Fatalf("simstats record has empty kernel counters: %+v", got)
	}
	if got.Requests == 0 || got.RequestsPerSecond <= 0 {
		t.Fatalf("simstats record has no request throughput, the gate's unit: %+v", got)
	}
	if fi, err := os.Stat(profPath); err != nil || fi.Size() == 0 {
		t.Fatalf("cpuprofile not written: %v", err)
	}

	// Second run compares against the baseline just recorded: identical
	// work lands around 1.0x, far above the 0.5 default floor.
	if err := run([]string{"simstats", "-scenario", "fig1-wl4000",
		"-duration", "240s", "-benchout", benchPath}); err != nil {
		t.Fatalf("simstats against baseline: %v", err)
	}

	// An unreachable floor must fail the gate and leave the baseline
	// file untouched.
	before, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simstats", "-scenario", "fig1-wl4000",
		"-duration", "240s", "-benchout", benchPath, "-bench-floor", "1000"}); err == nil {
		t.Fatal("simstats with -bench-floor=1000 succeeded, want the enforced gate to fail")
	}
	after, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed gate overwrote the recorded baseline")
	}

	// A 5 s run is other work than the 240 s baseline: the gate must fail
	// at the default floor, name the duration, and leave the file as it
	// was.
	err = run([]string{"simstats", "-scenario", "fig1-wl4000",
		"-duration", "5s", "-benchout", benchPath})
	if err == nil || !strings.Contains(err.Error(), "duration 5s, baseline 240s") {
		t.Fatalf("simstats against a 240 s baseline with a 5 s run: %v, want a duration mismatch", err)
	}
	after, err = os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("mismatched baseline was overwritten")
	}

	// Zero records without comparing.
	if err := run([]string{"simstats", "-scenario", "fig1-wl4000",
		"-duration", "5s", "-benchout", benchPath, "-bench-floor", "0"}); err != nil {
		t.Fatalf("simstats with -bench-floor=0: %v", err)
	}

	// A baseline recorded before the gate counted requests has no
	// requests/s to compare against: the gate must fail and say so.
	legacy := []byte(`{"simstats": {"benchmark": "ntierlab-simstats", "scenario": "fig1-wl4000",
		"seed": 1, "duration_seconds": 5, "retention": "bounded", "events_per_second": 1000000}}`)
	if err := os.WriteFile(benchPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"simstats", "-scenario", "fig1-wl4000",
		"-duration", "5s", "-benchout", benchPath})
	if err == nil || !strings.Contains(err.Error(), "no requests/s") {
		t.Fatalf("simstats against a baseline without requests/s: %v, want a refusal", err)
	}
}

func TestListAndPredictSucceed(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatalf("list: %v", err)
	}
	// The paper's example: 1000 req/s × 0.4s against 278.
	if err := run([]string{"predict", "1000", "400ms", "278"}); err != nil {
		t.Fatalf("predict: %v", err)
	}
	// Non-overflow branch.
	if err := run([]string{"predict", "100", "400ms", "278"}); err != nil {
		t.Fatalf("predict: %v", err)
	}
}
