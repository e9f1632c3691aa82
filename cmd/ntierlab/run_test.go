package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctqosim/internal/core"
	"ctqosim/internal/span"
)

// TestRunValidatesFlags checks the errors run reports before it simulates
// anything: a missing or unknown scenario reference and the flag
// combinations it refuses.
func TestRunValidatesFlags(t *testing.T) {
	tests := []struct {
		args []string
		want string
	}{
		{[]string{"run"}, "usage"},
		{[]string{"run", "-json"}, "usage"},
		{[]string{"run", "fig99"}, "unknown scenario"},
		{[]string{"run", "fig1-wl4000", "-json", "-exemplars", "2"}, "-json"},
		{[]string{"run", "fig1-wl4000", "-exemplars", "-1"}, "exemplars"},
	}
	for _, tt := range tests {
		err := run(tt.args)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("run(%v) = %v, want containing %q", tt.args, err, tt.want)
		}
	}
}

// TestRunEndToEnd is a short real analysis run through the CLI path, of a
// scenario file: the CTQO matrix cell with NX=1 and a CPU millibottleneck
// in the app tier.
func TestRunEndToEnd(t *testing.T) {
	cell := filepath.Join("..", "..", "internal", "core", "scenarios", "cells", "nx1-cpu-app.json")
	if _, err := captureStdout(t, func() error {
		return run([]string{"run", cell, "-duration", (20 * time.Second).String()})
	}); err != nil {
		t.Fatalf("run %s: %v", cell, err)
	}
}

// TestRunSpanFlags drives the fig3 consolidation scenario (shortened: the
// first burst train lands at 15s and 18s, so 25s of measurement already
// produces the 3s and 6s clusters) through every span flag and checks the
// artifacts: the Perfetto JSON parses and contains a ~6s exemplar with two
// ~3s retransmission spans, and the waterfall SVG is well-formed.
func TestRunSpanFlags(t *testing.T) {
	dir := t.TempDir()
	perfetto := filepath.Join(dir, "trace.json")
	waterfall := filepath.Join(dir, "tail.svg")
	err := run([]string{
		"run", "fig3",
		"-duration", (25 * time.Second).String(),
		"-exemplars", "1",
		"-perfetto", perfetto, "-waterfall", waterfall,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	raw, err := os.ReadFile(perfetto)
	if err != nil {
		t.Fatalf("perfetto output: %v", err)
	}
	var f struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			Dur   float64 `json:"dur"`
			PID   uint64  `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("perfetto JSON does not parse: %v", err)
	}
	roots := map[uint64]float64{}
	gaps := map[uint64]int{}
	for _, ev := range f.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		switch ev.Name {
		case "request":
			roots[ev.PID] = ev.Dur / 1e6
		case "retransmit":
			if d := ev.Dur / 1e6; d > 2.9 && d < 3.1 {
				gaps[ev.PID]++
			}
		}
	}
	found := false
	for pid, rt := range roots {
		if rt > 5.9 && rt < 6.3 && gaps[pid] == 2 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no ~6s exemplar with two ~3s retransmission spans among %d traces", len(roots))
	}

	svg, err := os.ReadFile(waterfall)
	if err != nil {
		t.Fatalf("waterfall output: %v", err)
	}
	for _, want := range []string{"<svg", "retransmit", "</svg>"} {
		if !strings.Contains(string(svg), want) {
			t.Errorf("waterfall SVG missing %q", want)
		}
	}
}

// TestFig3BreakdownAttribution is the paper's headline claim as a test:
// on the Fig. 3 consolidation scenario, at least 90% of the p99.9 (and
// VLRT) response time must be attributed to retransmission gaps plus
// queue/pool waits — not service time.
func TestFig3BreakdownAttribution(t *testing.T) {
	cfg := core.Scenarios()["fig3"]
	cfg.Duration = 25 * time.Second
	res, err := core.New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	b := res.SpanBreakdown
	if b == nil {
		t.Fatal("fig3 run produced no span breakdown")
	}
	if b.VLRT.Count == 0 {
		t.Fatal("fig3 run produced no VLRT requests")
	}
	if ws := b.P999.WaitShare(); ws < 0.9 {
		t.Errorf("p99.9 wait share = %.3f, want >= 0.9\n%s", ws, b)
	}
	if ws := b.VLRT.WaitShare(); ws < 0.9 {
		t.Errorf("VLRT wait share = %.3f, want >= 0.9\n%s", ws, b)
	}
	if b.VLRT.Share(span.KindService) > 0.1 {
		t.Errorf("VLRT service share = %.3f, want <= 0.1",
			b.VLRT.Share(span.KindService))
	}
}
