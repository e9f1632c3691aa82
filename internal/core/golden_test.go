package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ctqosim/internal/metrics"
	"ctqosim/internal/ntier"
	"ctqosim/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// The golden runs share one short horizon: a 5 s warm-up plus 30 s
// measured ends every run at 35 s, where every embedded file that drops
// packets at its registered horizon still drops (the log-flush files
// first stall at 30 s, so a 30 s horizon shows none of their drops).
// The Fig. 12 templates run at one fixed concurrency.
const (
	goldenWarmUp      = 5 * time.Second
	goldenDuration    = 30 * time.Second
	goldenConcurrency = 400
	goldenPath        = "testdata/golden.txt"
)

// goldenBounded names the files that get a second row, keyed
// path+"#bounded", run the way ntierlab simstats and sweeps run them:
// trace and spans off, bounded recorder retention.
var goldenBounded = map[string]bool{
	"scenarios/async-highutil.json": true,
	"scenarios/fig3.json":           true,
}

// goldenGenerated is how many scenario.Generate seeds get a row, keyed
// "generated/<seed>". Their fleets, standing faults and chaos scripts
// reach what the embedded files do not: log-flush blocks, kill and
// restore stalls, pool resizes and every NX level on one short run each.
const goldenGenerated = 200

// goldenFiles lists every embedded scenario file — the registry, the
// Fig. 12 templates and the matrix cells — in lexical path order, each
// followed by its "#bounded" key when it has one.
func goldenFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := fs.WalkDir(scenarioFS, "scenarios", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".json") {
			paths = append(paths, p)
			if goldenBounded[p] {
				paths = append(paths, p+"#bounded")
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// goldenKeys lists every golden row's key: the embedded files as
// goldenFiles lists them, then the generated seeds in order.
func goldenKeys(t *testing.T) []string {
	t.Helper()
	keys := goldenFiles(t)
	for seed := 1; seed <= goldenGenerated; seed++ {
		keys = append(keys, "generated/"+strconv.Itoa(seed))
	}
	return keys
}

// goldenConfig returns the run a golden key names and, for a generated
// key, the document whose assertions it must pass. An embedded file runs
// at seed 1 on the golden horizon with spans on; a "#bounded" key runs it
// with trace and spans off under bounded retention. A
// "generated/<seed>" key compiles scenario.Generate(seed) and runs it as
// the document says, at its own seed and horizon.
func goldenConfig(key string) (Config, *scenario.Document, error) {
	if s, ok := strings.CutPrefix(key, "generated/"); ok {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Config{}, nil, err
		}
		doc := scenario.Generate(seed)
		cfg, err := FromScenario(doc)
		return cfg, doc, err
	}
	path, variant, _ := strings.Cut(key, "#")
	cfg := mustScenario(path)
	cfg.Spans = variant == ""
	if variant == "bounded" {
		cfg.Trace = false
		cfg.Retention = metrics.RetainBounded
	}
	cfg.Seed = 1
	cfg.WarmUp = goldenWarmUp
	cfg.Duration = goldenDuration
	if strings.HasPrefix(path, "scenarios/templates/") {
		cfg.Clients = goldenConcurrency
	}
	return cfg, nil, nil
}

// goldenRow runs the key's configuration (goldenConfig) and renders its
// readable row plus a SHA-256 over the Summarize JSON (with SimStats
// off), every response time in record order and, on a traced run, the
// rendered CTQO report. It fails if the run panics, naming the key, if
// it breaks a conservation law (checkConservation), or if a generated
// document's assertions fail. An embedded file's row also fails when no
// trace finished; a file that does not register spans has its breakdown
// and spans echo stripped before hashing, and the row ends with a
// SHA-256 over the file's own defaulted effective config, taken before
// goldenConfig moves it to the golden horizon.
func goldenRow(key string) (row string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", key, r)
		}
	}()
	cfg, doc, err := goldenConfig(key)
	if err != nil {
		return "", fmt.Errorf("%s: %w", key, err)
	}
	cfg.SimStats = true
	res, err := New(cfg).Run()
	if err != nil {
		return "", fmt.Errorf("%s: %w", key, err)
	}
	if err := checkConservation(res); err != nil {
		return "", fmt.Errorf("%s: %w", key, err)
	}
	if doc != nil {
		if report := scenario.Evaluate(doc.Assertions, res.Outcome()); !report.Pass() {
			return "", fmt.Errorf("%s: assertions failed:\n%s", key, report)
		}
	}
	var config string
	if path, variant, _ := strings.Cut(key, "#"); doc == nil && variant == "" {
		if res.Spans.Finished() == 0 {
			return "", fmt.Errorf("%s: no trace finished", key)
		}
		own := mustScenario(path)
		if !own.Spans {
			res.SpanBreakdown, res.Config.Spans = nil, false
		}
		js, err := json.Marshal(effectiveConfig(own.withDefaults()))
		if err != nil {
			return "", err
		}
		config = fmt.Sprintf(" config=%x", sha256.Sum256(js))
	}
	st := res.SimStats
	res.SimStats, res.Config.SimStats = nil, false

	h := sha256.New()
	js, err := json.Marshal(Summarize(res))
	if err != nil {
		return "", err
	}
	h.Write(js)
	var buf [8]byte
	for _, rt := range res.Recorder.ResponseTimes() {
		binary.LittleEndian.PutUint64(buf[:], uint64(rt))
		h.Write(buf[:])
	}
	if res.Report != nil {
		h.Write([]byte(res.Report.String()))
	}

	names := make([]string, 0, len(res.DropsPerServer))
	for name := range res.DropsPerServer {
		names = append(names, name)
	}
	sort.Strings(names)
	drops := make([]string, len(names))
	for i, name := range names {
		drops[i] = fmt.Sprintf("%s:%d", name, res.DropsPerServer[name])
	}
	rec := res.Recorder
	return fmt.Sprintf("%s req=%d thr=%.3f p50=%v p99=%v p999=%v vlrt=%d drops=[%s] events=%d/%d peak=%d sha256=%x%s",
		key, rec.Len(), res.Throughput, rec.Percentile(0.50), rec.Percentile(0.99), rec.Percentile(0.999),
		res.VLRTCount, strings.Join(drops, ","), st.EventsExecuted, st.EventsScheduled, st.PeakPending,
		h.Sum(nil), config), nil
}

// checkConservation checks the run's conservation laws. Every steady and
// co-tenant server accounts for each admitted request: accepted =
// completed + failed + in flight, with shed requests counted as failed.
// Every destination of both transports accounts for each attempt:
// attempts = delivered + dropped, and every drop is retransmitted or
// given up. The steady transport's drop records pass checkKeptDrops.
func checkConservation(res *Result) error {
	systems := []*ntier.System{res.System}
	if res.Bursty != nil {
		systems = append(systems, res.Bursty)
	}
	for _, sys := range systems {
		for _, srv := range sys.Servers() {
			st := srv.Stats()
			if held := st.Completed + st.Failed + int64(srv.Depth()); st.Accepted != held {
				return fmt.Errorf("%s accepted %d requests but completed %d + failed %d + in flight %d",
					srv.Name(), st.Accepted, st.Completed, st.Failed, srv.Depth())
			}
		}
		for _, dst := range sys.Transport.Destinations() {
			hs := sys.Transport.Stats(dst)
			if hs.Attempts != hs.Delivered+hs.Dropped {
				return fmt.Errorf("%s: %d attempts but %d delivered + %d dropped",
					dst, hs.Attempts, hs.Delivered, hs.Dropped)
			}
			if hs.Dropped != hs.Retransmits+hs.GaveUp {
				return fmt.Errorf("%s: %d drops but %d retransmitted + %d given up",
					dst, hs.Dropped, hs.Retransmits, hs.GaveUp)
			}
		}
	}
	return checkKeptDrops(res)
}

// checkKeptDrops checks the steady transport's drop records. A traced
// run keeps one per drop: per server they count its HopStats.Dropped,
// in non-decreasing time order, none later than the run's end. An
// untraced run keeps none.
func checkKeptDrops(res *Result) error {
	tr := res.System.Transport
	drops := tr.Drops()
	if !res.Config.Trace {
		if drops != nil {
			return fmt.Errorf("untraced run kept %d drop records", len(drops))
		}
		return nil
	}
	kept := make(map[string]int64)
	for i, d := range drops {
		if i > 0 && d.At < drops[i-1].At {
			return fmt.Errorf("drop record %d at %v precedes record %d at %v", i, d.At, i-1, drops[i-1].At)
		}
		if d.At > res.End {
			return fmt.Errorf("drop record %d at %v is past the run's end %v", i, d.At, res.End)
		}
		kept[d.Server]++
	}
	var counted int64
	for _, dst := range tr.Destinations() {
		n := tr.Stats(dst).Dropped
		if kept[dst] != n {
			return fmt.Errorf("%s: %d drop records kept, transport counted %d drops", dst, kept[dst], n)
		}
		counted += n
	}
	if int64(len(drops)) != counted {
		return fmt.Errorf("%d drop records kept, transport counted %d drops", len(drops), counted)
	}
	return nil
}

// TestGoldenScenarios pins the behaviour of every embedded scenario file
// and of the generated seeds across commits: a refactor that claims to
// change no behaviour must leave every row and digest in
// testdata/golden.txt unchanged. It is the one run of each file and seed,
// and makes every per-run check there (goldenRow): determinism against the
// committed bytes, conservation, span ownership (a span recorded on a
// finished trace panics), each file's own config and the generated
// documents' assertions. Run with -update to re-pin after an intended
// behaviour change.
func TestGoldenScenarios(t *testing.T) {
	keys := goldenKeys(t)
	rows := make([]string, len(keys))
	err := NewRunner(0).Do(len(keys), func(slot int) error {
		row, err := goldenRow(keys[slot])
		rows[slot] = row
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(rows, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readGolden()
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	for i, key := range keys {
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s has no golden row (run with -update to pin it)", key)
		case w != rows[i]:
			t.Errorf("golden row changed:\n  want %s\n  got  %s", w, rows[i])
		}
		delete(want, key)
	}
	for key := range want {
		t.Errorf("golden row for %s, which no longer runs", key)
	}
}

// readGolden maps each golden row's scenario path to the whole row.
func readGolden() (map[string]string, error) {
	f, err := os.Open(goldenPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		path, _, _ := strings.Cut(line, " ")
		rows[path] = line
	}
	return rows, sc.Err()
}
