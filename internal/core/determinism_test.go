package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ctqosim/internal/ntier"
	"ctqosim/internal/span"
)

// TestRunDeterminism locks in the determinism contract end to end: two
// runs of the fig3 consolidation scenario with the same seed must agree
// byte for byte on the -json summary (which embeds the effective config
// and the span breakdown), on the rendered critical-path table, and on
// the Perfetto trace-event export. ctqo-lint catches wall-clock, global
// rand and map-order leaks statically; this test catches whatever slips
// past it dynamically, so future nondeterminism fails tier-1 tests, not
// just lint.
func TestRunDeterminism(t *testing.T) {
	cfg := Scenarios()["fig3"]
	cfg = shorten(cfg, 30*time.Second)
	cfg.Spans = true

	type snapshot struct {
		json      []byte
		breakdown string
		perfetto  []byte
	}
	capture := func() snapshot {
		res := mustRun(t, cfg)
		js, err := res.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		var pf bytes.Buffer
		exemplars := res.Spans.TailExemplars()
		if len(exemplars) == 0 {
			exemplars = res.Spans.Reservoir()
		}
		if err := span.WriteTraceEvents(&pf, exemplars); err != nil {
			t.Fatalf("WriteTraceEvents: %v", err)
		}
		return snapshot{
			json:      js,
			breakdown: res.SpanBreakdown.String(),
			perfetto:  pf.Bytes(),
		}
	}

	first := capture()
	second := capture()

	if !bytes.Equal(first.json, second.json) {
		t.Errorf("summary JSON differs between identical runs:\n%s",
			firstDiff(first.json, second.json))
	}
	if first.breakdown != second.breakdown {
		t.Errorf("span breakdown differs between identical runs:\n%s",
			firstDiff([]byte(first.breakdown), []byte(second.breakdown)))
	}
	if !bytes.Equal(first.perfetto, second.perfetto) {
		t.Errorf("perfetto export differs between identical runs:\n%s",
			firstDiff(first.perfetto, second.perfetto))
	}
}

// TestRunSeedSensitivity is the complementary check: a different seed
// must actually change the run, or the determinism test above would pass
// vacuously on a simulator that ignores its seed.
func TestRunSeedSensitivity(t *testing.T) {
	cfg := Scenarios()["fig3"]
	cfg = shorten(cfg, 30*time.Second)
	// Explicit seeds: a zero seed defaults to 1, so "0 vs 1" would
	// compare a run against itself.
	cfg.Seed = 7
	a := mustRun(t, cfg)
	cfg.Seed = 8
	b := mustRun(t, cfg)
	ja, err := a.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if bytes.Equal(ja, jb) {
		t.Error("changing the seed left the summary JSON byte-identical; the seed is not wired through")
	}
}

// TestRunnerParallelFig3ByteIdentity extends the determinism contract to
// the worker pool (DESIGN.md §9): running the fig3 scenario through
// Runner at workers=4 must produce byte-for-byte the JSON summary,
// rendered summary and CSV exports of workers=1. The batch pads the
// scenario with sibling runs so the pool actually schedules concurrently
// around the slot under test.
func TestRunnerParallelFig3ByteIdentity(t *testing.T) {
	base := Scenarios()["fig3"]
	base = shorten(base, 20*time.Second)
	base.Spans = true
	batch := func() []Config {
		cfgs := make([]Config, 4)
		for i := range cfgs {
			cfgs[i] = base
			cfgs[i].Seed = int64(i + 1)
		}
		return cfgs
	}

	capture := func(workers int) (jsons [][]byte, summaries []string, csvDirs []string) {
		t.Helper()
		results, err := NewRunner(workers).Run(batch())
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		for i, res := range results {
			js, err := res.JSON()
			if err != nil {
				t.Fatalf("JSON: %v", err)
			}
			dir := filepath.Join(t.TempDir(), fmt.Sprintf("w%d-%d", workers, i))
			if err := WriteCSVs(res, dir); err != nil {
				t.Fatalf("WriteCSVs: %v", err)
			}
			jsons = append(jsons, js)
			summaries = append(summaries, res.Summary())
			csvDirs = append(csvDirs, dir)
		}
		return jsons, summaries, csvDirs
	}

	serialJSON, serialSummary, serialCSV := capture(1)
	parallelJSON, parallelSummary, parallelCSV := capture(4)

	for i := range serialJSON {
		if !bytes.Equal(serialJSON[i], parallelJSON[i]) {
			t.Errorf("slot %d: JSON differs between workers=1 and workers=4:\n%s",
				i, firstDiff(serialJSON[i], parallelJSON[i]))
		}
		if serialSummary[i] != parallelSummary[i] {
			t.Errorf("slot %d: summary differs between workers=1 and workers=4:\n%s",
				i, firstDiff([]byte(serialSummary[i]), []byte(parallelSummary[i])))
		}
		compareDirsBytewise(t, serialCSV[i], parallelCSV[i])
	}
}

// TestRunnerParallelMatrixByteIdentity runs a reduced CTQO grid through
// the pool at workers=1 and workers=4 and requires the rendered table —
// the user-visible output of the matrix path — to match byte for byte.
func TestRunnerParallelMatrixByteIdentity(t *testing.T) {
	grid := func(workers int) string {
		t.Helper()
		cells, err := RunCTQOMatrix(MatrixConfig{
			Clients:  7000,
			Duration: 15 * time.Second,
			Levels:   []ntier.NX{ntier.NX0, ntier.NX2},
			Kinds:    []string{"cpu"},
			Workers:  workers,
		})
		if err != nil {
			t.Fatalf("RunCTQOMatrix(workers=%d): %v", workers, err)
		}
		return FormatMatrix(cells)
	}
	serial := grid(1)
	parallel := grid(4)
	if serial != parallel {
		t.Errorf("matrix table differs between workers=1 and workers=4:\n%s",
			firstDiff([]byte(serial), []byte(parallel)))
	}
}

// TestRunnerParallelFigure12ByteIdentity covers the third multi-run entry
// point: the Fig. 12 concurrency sweep must return the same rows — and
// hence the same rendered table — from one worker and from four.
func TestRunnerParallelFigure12ByteIdentity(t *testing.T) {
	sweep := func(workers int) string {
		t.Helper()
		rows, err := NewRunner(workers).Figure12([]int{100, 400})
		if err != nil {
			t.Fatalf("Figure12(workers=%d): %v", workers, err)
		}
		var b strings.Builder
		for _, p := range rows {
			fmt.Fprintf(&b, "%d,%.3f,%.3f\n", p.Concurrency, p.Sync, p.Async)
		}
		return b.String()
	}
	serial := sweep(1)
	parallel := sweep(4)
	if serial != parallel {
		t.Errorf("fig12 rows differ between workers=1 and workers=4:\n%s",
			firstDiff([]byte(serial), []byte(parallel)))
	}
}

// TestSweepParallelByteIdentity extends the §9 byte-identity contract to
// the sharded sweep engine at acceptance scale: a 200-seed sweep must
// render byte-identical CSV, JSON and text reports from one worker and
// from several (including a worker count that does not divide the shard
// count), because shards are merged in shard order regardless of which
// worker finished them when.
func TestSweepParallelByteIdentity(t *testing.T) {
	sc := SweepConfig{Config: tinySweepConfig(), Seeds: 200, ShardSize: 16}
	type rendering struct {
		csv, js []byte
		text    string
	}
	capture := func(workers int) rendering {
		t.Helper()
		stats, err := NewRunner(workers).Sweep(sc)
		if err != nil {
			t.Fatalf("Sweep(workers=%d): %v", workers, err)
		}
		js, err := stats.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return rendering{csv: stats.CSV(), js: js, text: stats.String()}
	}
	serial := capture(1)
	for _, workers := range []int{4, 7} {
		parallel := capture(workers)
		if !bytes.Equal(serial.csv, parallel.csv) {
			t.Errorf("sweep CSV differs between workers=1 and workers=%d:\n%s",
				workers, firstDiff(serial.csv, parallel.csv))
		}
		if !bytes.Equal(serial.js, parallel.js) {
			t.Errorf("sweep JSON differs between workers=1 and workers=%d:\n%s",
				workers, firstDiff(serial.js, parallel.js))
		}
		if serial.text != parallel.text {
			t.Errorf("sweep text differs between workers=1 and workers=%d:\n%s",
				workers, firstDiff([]byte(serial.text), []byte(parallel.text)))
		}
	}
}

// TestSweepPartialFailureByteIdentity covers the Runner partial-failure
// path across pool sizes: with the last shard entirely invalid (its seeds
// run past MaxInt64) and the middle one partially so, every rendering and
// the joined error text must match at workers=1 and workers=4 — a
// failure's position in the output may not depend on scheduling.
func TestSweepPartialFailureByteIdentity(t *testing.T) {
	cfg := tinySweepConfig()
	cfg.Seed = math.MaxInt64 - 5 // seeds +0..5 fit; +6..11 wrap
	sc := SweepConfig{Config: cfg, Seeds: 12, ShardSize: 4}
	capture := func(workers int) (csv []byte, errText string) {
		t.Helper()
		stats, err := NewRunner(workers).Sweep(sc)
		if err == nil {
			t.Fatalf("Sweep(workers=%d): expected a joined error", workers)
		}
		if stats.Completed != 6 || stats.Failed != 6 {
			t.Fatalf("Sweep(workers=%d): completed/failed = %d/%d, want 6/6",
				workers, stats.Completed, stats.Failed)
		}
		return stats.CSV(), err.Error()
	}
	serialCSV, serialErr := capture(1)
	parallelCSV, parallelErr := capture(4)
	if !bytes.Equal(serialCSV, parallelCSV) {
		t.Errorf("partial sweep CSV differs between workers=1 and workers=4:\n%s",
			firstDiff(serialCSV, parallelCSV))
	}
	if serialErr != parallelErr {
		t.Errorf("joined error differs between workers=1 and workers=4:\n%s",
			firstDiff([]byte(serialErr), []byte(parallelErr)))
	}
}

// compareDirsBytewise asserts two directories hold the same file names
// with byte-identical contents.
func compareDirsBytewise(t *testing.T, a, b string) {
	t.Helper()
	names := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir(%s): %v", dir, err)
		}
		out := make([]string, 0, len(entries))
		for _, e := range entries {
			out = append(out, e.Name())
		}
		sort.Strings(out)
		return out
	}
	na, nb := names(a), names(b)
	if fmt.Sprint(na) != fmt.Sprint(nb) {
		t.Fatalf("directory listings differ: %v vs %v", na, nb)
	}
	for _, name := range na {
		da, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Errorf("%s differs between workers=1 and workers=4:\n%s",
				name, firstDiff(da, db))
		}
	}
}

// firstDiff renders the first line where two byte slices diverge.
func firstDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n  run 1: %s\n  run 2: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}
