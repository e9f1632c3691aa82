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
	"strings"
	"testing"
	"time"
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

// goldenFiles lists every embedded scenario file — the registry, the
// Fig. 12 templates and the matrix cells — in lexical path order.
func goldenFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := fs.WalkDir(scenarioFS, "scenarios", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".json") {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// goldenRow runs one embedded file at seed 1 on the golden horizon and
// renders its readable row plus a SHA-256 over the Summarize JSON (with
// SimStats off) and every response time in record order. It fails if
// any steady or co-tenant server does not conserve its admissions.
func goldenRow(path string) (string, error) {
	cfg := mustScenario(path)
	cfg.Seed = 1
	cfg.WarmUp = goldenWarmUp
	cfg.Duration = goldenDuration
	if strings.HasPrefix(path, "scenarios/templates/") {
		cfg.Clients = goldenConcurrency
	}
	cfg.SimStats = true
	res, err := New(cfg).Run()
	if err != nil {
		return "", err
	}
	if err := checkConservation(res); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
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
	return fmt.Sprintf("%s req=%d thr=%.3f p50=%v p99=%v p999=%v vlrt=%d drops=[%s] events=%d/%d peak=%d sha256=%x",
		path, rec.Len(), res.Throughput, rec.Percentile(0.50), rec.Percentile(0.99), rec.Percentile(0.999),
		res.VLRTCount, strings.Join(drops, ","), st.EventsExecuted, st.EventsScheduled, st.PeakPending,
		h.Sum(nil)), nil
}

// checkConservation requires every steady and co-tenant server to account
// for each admitted request: accepted = completed + failed + in flight,
// with shed requests counted as failed.
func checkConservation(res *Result) error {
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

// TestGoldenScenarios pins the behaviour of every embedded scenario file
// across commits: a refactor that claims to change no behaviour must
// leave every row and digest in testdata/golden.txt unchanged. Run with
// -update to re-pin after an intended behaviour change.
func TestGoldenScenarios(t *testing.T) {
	paths := goldenFiles(t)
	rows := make([]string, len(paths))
	err := NewRunner(0).Do(len(paths), func(slot int) error {
		row, err := goldenRow(paths[slot])
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
	for i, path := range paths {
		w, ok := want[path]
		switch {
		case !ok:
			t.Errorf("%s has no golden row (run with -update to pin it)", path)
		case w != rows[i]:
			t.Errorf("golden row changed:\n  want %s\n  got  %s", w, rows[i])
		}
		delete(want, path)
	}
	for path := range want {
		t.Errorf("golden row for %s, which is no longer embedded", path)
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
