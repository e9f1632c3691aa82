package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ctqosim/internal/core"
)

func TestFigureTableCoversTheEvaluation(t *testing.T) {
	figs := figures()
	scenarios := core.Scenarios()
	want := map[string]bool{
		"1a": false, "1b": false, "1c": false,
		"3": false, "5": false, "7": false, "8": false, "9": false,
		"10": false, "11": false, "V-B-omitted": false, "abstract": false,
	}
	for _, f := range figs {
		if _, ok := want[f.id]; ok {
			want[f.id] = true
		}
		if f.paper == "" || f.render == nil || f.quick <= 0 {
			t.Errorf("figure %s incompletely described", f.id)
		}
		if _, ok := scenarios[f.scenario]; !ok {
			t.Errorf("figure %s names unknown scenario %q", f.id, f.scenario)
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("figure %s missing from the regeneration table", id)
		}
	}
}

func TestRunSingleFigureQuick(t *testing.T) {
	// Regenerate one figure in quick mode into a temp dir and check the
	// artifacts land.
	dir := t.TempDir()
	err := run([]string{"-out", dir, "-fig", "9", "-quick"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range []string{"queues.csv", "util.csv", "vlrt.csv", "histogram.csv"} {
		if _, err := os.Stat(filepath.Join(dir, "fig9", f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "summary.txt"))
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	if !strings.Contains(string(data), "Figure 9") {
		t.Fatalf("summary does not mention figure 9:\n%s", data)
	}
}

// wallClause matches the per-figure wall-clock annotations, the only
// part of the generated output that legitimately varies run to run.
var wallClause = regexp.MustCompile(`\([0-9a-z.µ]+ wall\)`)

// TestParallelRegenerationByteIdentical regenerates the same figure with
// -parallel 1 and -parallel 4 and requires every artifact to match byte
// for byte (summary compared with wall-clock annotations stripped).
func TestParallelRegenerationByteIdentical(t *testing.T) {
	serialDir, parallelDir := t.TempDir(), t.TempDir()
	if err := run([]string{"-out", serialDir, "-fig", "9", "-quick", "-parallel", "1"}); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if err := run([]string{"-out", parallelDir, "-fig", "9", "-quick", "-parallel", "4"}); err != nil {
		t.Fatalf("parallel run: %v", err)
	}

	entries, err := os.ReadDir(filepath.Join(serialDir, "fig9"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("serial run produced no fig9 artifacts")
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(serialDir, "fig9", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(parallelDir, "fig9", e.Name()))
		if err != nil {
			t.Fatalf("parallel run missing artifact: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("fig9/%s differs between -parallel 1 and -parallel 4", e.Name())
		}
	}

	sa, err := os.ReadFile(filepath.Join(serialDir, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := os.ReadFile(filepath.Join(parallelDir, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	ca := wallClause.ReplaceAllString(string(sa), "(wall)")
	cb := wallClause.ReplaceAllString(string(sb), "(wall)")
	if ca != cb {
		t.Errorf("summary differs between -parallel 1 and -parallel 4:\n--- serial\n%s\n--- parallel\n%s", ca, cb)
	}
}

// TestBenchoutRecordsComparison checks the -benchout mode writes the
// serial-vs-parallel wall-clock record under its key of the keyed
// BENCH_parallel.json shape (shared with ntierlab sweep via benchrec).
func TestBenchoutRecordsComparison(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "BENCH_parallel.json")
	if err := run([]string{"-out", dir, "-fig", "9", "-quick", "-benchout", benchPath}); err != nil {
		t.Fatalf("run -benchout: %v", err)
	}
	data, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatalf("benchout not written: %v", err)
	}
	var entries map[string]struct {
		Benchmark       string  `json:"benchmark"`
		CPUs            int     `json:"cpus"`
		Workers         int     `json:"workers"`
		SerialSeconds   float64 `json:"serial_seconds"`
		ParallelSeconds float64 `json:"parallel_seconds"`
		Speedup         float64 `json:"speedup"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("benchout is not valid keyed JSON: %v\n%s", err, data)
	}
	rec, ok := entries["figures_regeneration"]
	if !ok {
		t.Fatalf("figures_regeneration key missing:\n%s", data)
	}
	if rec.Benchmark != "figures-regeneration" {
		t.Errorf("benchmark = %q", rec.Benchmark)
	}
	if rec.SerialSeconds <= 0 || rec.ParallelSeconds <= 0 || rec.Speedup <= 0 {
		t.Errorf("timings not recorded: %+v", rec)
	}
	if rec.Workers < 1 || rec.CPUs < 1 {
		t.Errorf("pool shape not recorded: %+v", rec)
	}
}

// TestRunRejectsStrayArgument: flag parsing stops at the first non-flag
// word, so a stray word must fail rather than silently drop the flags
// after it. -fig none selects no figure, so a command that ignored the
// word would finish at once and fail the test.
func TestRunRejectsStrayArgument(t *testing.T) {
	err := run([]string{"-out", t.TempDir(), "-fig", "none", "stray", "-quick"})
	if err == nil || !strings.Contains(err.Error(), `unexpected argument "stray"`) {
		t.Fatalf("run with a stray argument = %v, want an unexpected-argument error", err)
	}
}

// TestRunHelpExitsZero pins -h: the flag set prints the usage and run
// returns no error, so the command exits 0 without regenerating anything.
func TestRunHelpExitsZero(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"-h", "-out", out}); err != nil {
		t.Fatalf("run(-h) = %v, want nil", err)
	}
	if entries, err := os.ReadDir(out); err != nil || len(entries) != 0 {
		t.Fatalf("run(-h) wrote %d file(s) to -out (err %v), want none", len(entries), err)
	}
}
