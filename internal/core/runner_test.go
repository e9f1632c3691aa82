package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinyConfig is a fast scenario for pool-mechanics tests: the content of
// the runs does not matter, only their identity and ordering.
func tinyConfig(i int) Config {
	return Config{
		Name:     fmt.Sprintf("tiny-%d", i),
		Clients:  200,
		WarmUp:   time.Second,
		Duration: 2 * time.Second,
		Seed:     int64(i + 1),
	}
}

// brokenConfig fails inside Experiment.Run: the requested index of
// dispersion is unreachable at the MMPP fitter's fixed hot fraction, so
// the run errors before simulating.
func brokenConfig(name string) Config {
	cfg := tinyConfig(0)
	cfg.Name = name
	cfg.Consolidation = &ConsolidationSpec{MMPPIndex: 1e12}
	return cfg
}

func TestRunnerResultsIndexedBySubmissionSlot(t *testing.T) {
	const n = 6
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = tinyConfig(i)
	}
	results, err := NewRunner(4).Run(cfgs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("slot %d is nil", i)
		}
		if got, want := res.Config.Name, cfgs[i].Name; got != want {
			t.Errorf("slot %d holds %q, want %q (completion order leaked)", i, got, want)
		}
	}
}

func TestRunnerCollectsErrorsAndKeepsCompletedSlots(t *testing.T) {
	cfgs := []Config{
		tinyConfig(0),
		brokenConfig("bad-a"),
		tinyConfig(2),
		brokenConfig("bad-b"),
	}
	results, err := NewRunner(4).Run(cfgs)
	if err == nil {
		t.Fatal("want a joined error, got nil")
	}
	for _, want := range []string{"run 1 (bad-a)", "run 3 (bad-b)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q does not mention %q", err, want)
		}
	}
	if results[0] == nil || results[2] == nil {
		t.Error("successful slots were dropped alongside the failures")
	}
	if results[1] != nil || results[3] != nil {
		t.Error("failed slots should be nil")
	}
}

func TestRunnerSerialPathMatchesDirectRuns(t *testing.T) {
	cfgs := []Config{tinyConfig(0), tinyConfig(1)}
	results, err := NewRunner(1).Run(cfgs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, cfg := range cfgs {
		direct := mustRun(t, cfg)
		if got, want := results[i].Summary(), direct.Summary(); got != want {
			t.Errorf("slot %d differs from a direct New(cfg).Run():\npool:   %s\ndirect: %s",
				i, got, want)
		}
	}
}

func TestRunnerWorkersResolution(t *testing.T) {
	if got, want := NewRunner(0).workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := NewRunner(-3).workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := NewRunner(7).workers(); got != 7 {
		t.Errorf("workers(7) = %d, want 7", got)
	}
	var nilRunner *Runner
	if got := nilRunner.workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("nil runner workers() = %d, want GOMAXPROCS", got)
	}
}

func TestRunnerDoEmptyAndEachSlotOnce(t *testing.T) {
	if err := NewRunner(4).Do(0, func(int) error {
		t.Error("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatalf("Do(0): %v", err)
	}

	const n = 32
	counts := make([]int, n)
	before := runtime.NumGoroutine()
	err := NewRunner(4).Do(n, func(slot int) error {
		counts[slot]++ // per-slot write, the documented confinement rule
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	// Every worker Do started has exited: a worker leaves just after its
	// wg.Done, so wait up to 5 s for the count to come back.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Do, %d after", before, runtime.NumGoroutine())
		}
	}
	for i, c := range counts {
		if c != 1 {
			t.Errorf("slot %d executed %d times, want exactly once", i, c)
		}
	}
}
