package core

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestWriteCSVs(t *testing.T) {
	res := mustRun(t, shorten(registered(t, "fig3"), 20*time.Second))
	dir := t.TempDir()
	if err := WriteCSVs(res, dir); err != nil {
		t.Fatalf("WriteCSVs: %v", err)
	}

	for _, name := range []string{"queues.csv", "util.csv", "iowait.csv", "vlrt.csv", "histogram.csv"} {
		rows := readCSV(t, filepath.Join(dir, name))
		if len(rows) < 2 {
			t.Fatalf("%s has %d rows, want header + data", name, len(rows))
		}
	}

	// queues.csv: header has the three tiers; rows align with samples.
	rows := readCSV(t, filepath.Join(dir, "queues.csv"))
	if got := len(rows[0]); got != 4 {
		t.Fatalf("queues.csv header = %v", rows[0])
	}
	wantRows := len(res.Monitor.Queue("steady-apache").Values) + 1
	if len(rows) != wantRows {
		t.Fatalf("queues.csv rows = %d, want %d", len(rows), wantRows)
	}

	// util.csv includes the bursty co-tenant column.
	rows = readCSV(t, filepath.Join(dir, "util.csv"))
	if got := len(rows[0]); got != 5 {
		t.Fatalf("util.csv header = %v", rows[0])
	}
	foundBursty := false
	for _, col := range rows[0] {
		if col == "bursty-mysql" {
			foundBursty = true
		}
	}
	if !foundBursty {
		t.Fatalf("util.csv missing bursty co-tenant column: %v", rows[0])
	}

	// histogram.csv frequencies sum to the recorded request count.
	rows = readCSV(t, filepath.Join(dir, "histogram.csv"))
	var sum int64
	for _, row := range rows[1:] {
		n, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			t.Fatalf("histogram.csv value %q: %v", row[1], err)
		}
		sum += n
	}
	if sum != int64(res.Recorder.Len()) {
		t.Fatalf("histogram sum = %d, want %d", sum, res.Recorder.Len())
	}
}

func TestWriteCSVsBadDir(t *testing.T) {
	res := mustRun(t, shorten(Config{Name: "tiny", Clients: 10, WarmUp: time.Second}, 2*time.Second))
	// A file in place of the directory must fail cleanly.
	dir := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVs(res, dir); err == nil {
		t.Fatal("WriteCSVs into a file path succeeded, want error")
	}
}

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return rows
}

// TestEndToEndInvariants checks cross-cutting conservation laws on a run
// that includes drops, retransmissions and all three tiers.
func TestEndToEndInvariants(t *testing.T) {
	res := mustRun(t, shorten(registered(t, "fig3"), 30*time.Second))

	// Every VLRT request is attributed to the tier that first dropped one
	// of its packets: in every window the per-tier series sum to the whole
	// series, so no VLRT request lacks a drop or blames an unknown server.
	all := res.VLRTSeries("")
	perTier := make([]int, len(all))
	for _, tier := range res.System.TierNames() {
		for i, n := range res.VLRTSeries(tier) {
			perTier[i] += n
		}
	}
	total := 0
	for i := range all {
		if perTier[i] != all[i] {
			t.Fatalf("window %d: %d VLRT requests, but the tiers' series sum to %d", i, all[i], perTier[i])
		}
		total += all[i]
	}
	if total == 0 {
		t.Fatal("no VLRT requests: the invariants above checked nothing")
	}

	// Server accounting balances at quiescence is not guaranteed mid-run,
	// but accepted >= completed always holds.
	for _, srv := range res.System.Servers() {
		st := srv.Stats()
		if st.Completed+st.Failed > st.Accepted {
			t.Fatalf("%s: completed+failed %d > accepted %d",
				srv.Name(), st.Completed+st.Failed, st.Accepted)
		}
	}
}

func TestWriteSVGs(t *testing.T) {
	res := mustRun(t, shorten(registered(t, "fig3"), 20*time.Second))
	dir := t.TempDir()
	if err := WriteSVGs(res, dir); err != nil {
		t.Fatalf("WriteSVGs: %v", err)
	}
	for _, name := range []string{"util.svg", "queues.svg", "vlrt.svg", "histogram.svg", "iowait.svg"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if len(data) < 500 {
			t.Fatalf("%s suspiciously small (%d bytes)", name, len(data))
		}
		s := string(data)
		if !strings.HasPrefix(s, "<svg") || !strings.HasSuffix(s, "</svg>") {
			t.Fatalf("%s is not an SVG document", name)
		}
	}
	// The queue chart carries the MaxSysQDepth reference lines.
	queues, err := os.ReadFile(filepath.Join(dir, "queues.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(queues), "MaxSysQDepth=278") {
		t.Fatal("queues.svg missing the 278 reference line")
	}
}
