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

// tinyScenario is a fast declarative scenario with a timed event and
// assertions that a healthy run satisfies.
const tinyScenario = `{
  "name": "cli-tiny",
  "warmup": "1s",
  "duration": "4s",
  "fleet": {
    "nx": 0,
    "clients": 50,
    "think_time": "100ms"
  },
  "events": [
    {"at": "2s", "action": "logflush", "id": "f", "tier": "db", "interval": "1s", "duration": "50ms"},
    {"at": "4s", "action": "stop", "id": "f"}
  ],
  "assertions": [
    {"metric": "throughput", "min": 1},
    {"metric": "failed", "max": 0}
  ]
}
`

// captureStdout runs fn with stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(r)
		outCh <- data
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	return <-outCh, runErr
}

func TestScenarioDispatchErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(good, []byte(tinyScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		args []string
		want string
	}{
		{[]string{"scenario"}, "usage"},
		{[]string{"scenario", "bogus"}, "unknown scenario subcommand"},
		{[]string{"scenario", "run", good}, "ntierlab run"},
		{[]string{"scenario", "validate"}, "usage"},
		{[]string{"scenario", "validate", filepath.Join(dir, "missing.json")}, "missing.json"},
		{[]string{"run", filepath.Join(dir, "missing.json")}, "missing.json"},
		{[]string{"sweep", "-scenario", filepath.Join(dir, "missing.json")}, "missing.json"},
	}
	for _, tt := range tests {
		_, err := captureStdout(t, func() error { return run(tt.args) })
		if err == nil {
			t.Errorf("run(%v): no error, want %q", tt.args, tt.want)
			continue
		}
		if !strings.Contains(err.Error(), tt.want) {
			t.Errorf("run(%v) = %q, want containing %q", tt.args, err, tt.want)
		}
	}
}

// TestScenarioValidate covers the validate subcommand against a good
// file, a generated file, and a file with an unknown field (the strict
// parser must name the file and section).
func TestScenarioValidate(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(good, []byte(tinyScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	gen := filepath.Join(dir, "gen.json")
	if _, err := captureStdout(t, func() error {
		return run([]string{"scenario", "generate", "-seed", "42", "-o", gen})
	}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"scenario", "validate", good, gen})
	})
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if got := string(out); !strings.Contains(got, "cli-tiny") || strings.Count(got, "ok ") != 2 {
		t.Errorf("validate output missing ok lines:\n%s", got)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","fleet":{"nx":0,"clients":5,"bogus":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = captureStdout(t, func() error {
		return run([]string{"scenario", "validate", bad})
	})
	if err == nil || !strings.Contains(err.Error(), "bad.json") || !strings.Contains(err.Error(), "fleet") {
		t.Errorf("validate(bad) = %v, want file and section context", err)
	}
}

// TestScenarioRunEndToEnd runs a scenario file through run: the JSON
// summary must parse, the assertions must pass, and -benchout must record
// the wall clock under the scenario_run key.
func TestScenarioRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(file, []byte(tinyScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	bench := filepath.Join(dir, "bench.json")
	out, err := captureStdout(t, func() error {
		return run([]string{"run", file, "-json", "-benchout", bench})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var summary struct {
		Scenario string `json:"scenario"`
	}
	if err := json.Unmarshal(out, &summary); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}

	data, err := os.ReadFile(bench)
	if err != nil {
		t.Fatalf("benchout not written: %v", err)
	}
	var entries map[string]json.RawMessage
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("benchout does not parse: %v", err)
	}
	raw, ok := entries["scenario_run"]
	if !ok {
		t.Fatalf("benchout missing scenario_run key: %s", data)
	}
	var rec scenarioRunRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Scenario != "cli-tiny" || rec.WallSeconds <= 0 || rec.Events != 2 || rec.Assertions != 2 {
		t.Errorf("scenario_run record = %+v", rec)
	}

	// A failing assertion must exit non-zero with the report's count.
	failing := strings.Replace(tinyScenario, `{"metric": "throughput", "min": 1}`,
		`{"metric": "throughput", "min": 1000000}`, 1)
	fileBad := filepath.Join(dir, "failing.json")
	if err := os.WriteFile(fileBad, []byte(failing), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = captureStdout(t, func() error {
		return run([]string{"run", fileBad})
	})
	if err == nil || !strings.Contains(err.Error(), "assertions failed") {
		t.Errorf("failing assertion: err = %v, want assertions failed", err)
	}
}

// TestRunScenarioFileFlag checks that run takes a scenario file wherever
// it takes a registry name: the tiny file's summary and assertion report.
func TestRunScenarioFileFlag(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(file, []byte(tinyScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"run", file})
	})
	if err != nil {
		t.Fatalf("run %s: %v", file, err)
	}
	if got := string(out); !strings.Contains(got, "cli-tiny") || !strings.Contains(got, "assertions passed") {
		t.Errorf("run output missing summary or assertion report:\n%s", got)
	}
}

// TestRunScenarioStdoutIsDeterministic runs the same file twice: stdout
// depends on the simulation alone, so the two runs print the same bytes,
// and no wall-clock reading reaches them (that is -simstats' and
// -benchout's job).
func TestRunScenarioStdoutIsDeterministic(t *testing.T) {
	file := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(file, []byte(tinyScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	var outs [2][]byte
	for i := range outs {
		out, err := captureStdout(t, func() error {
			return run([]string{"run", file, "-spans"})
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		outs[i] = out
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("two runs of one file printed different stdout:\n%s\n---\n%s", outs[0], outs[1])
	}
	if bytes.Contains(outs[0], []byte("wall")) {
		t.Errorf("run printed a wall-clock reading:\n%s", outs[0])
	}
}

// TestRunJSONWritesEveryFile checks that -json changes only what stdout
// carries, the document alone: the -csv, -perfetto, -waterfall and
// -benchout files are written as they are in text mode.
func TestRunJSONWritesEveryFile(t *testing.T) {
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	perfetto := filepath.Join(dir, "trace.json")
	waterfall := filepath.Join(dir, "tail.svg")
	bench := filepath.Join(dir, "bench.json")
	// fig1-wl4000 keeps tail exemplars from 10 s on, so the waterfall
	// has a request to draw.
	for _, tc := range []struct {
		flags []string
		files []string
	}{
		{[]string{"-csv", csvDir}, []string{filepath.Join(csvDir, "queues.csv"), filepath.Join(csvDir, "vlrt.csv")}},
		{[]string{"-perfetto", perfetto, "-waterfall", waterfall, "-benchout", bench}, []string{perfetto, waterfall, bench}},
	} {
		args := append([]string{"run", "fig1-wl4000", "-duration", "10s", "-json"}, tc.flags...)
		out, err := captureStdout(t, func() error { return run(args) })
		if err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(out, &doc); err != nil {
			t.Fatalf("run %v: stdout is not the JSON document alone: %v\n%s", args, err, out)
		}
		for _, path := range tc.files {
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("run %v did not write %s: %v", args, path, err)
			}
		}
	}
}
