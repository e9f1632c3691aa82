package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ctqosim/internal/ntier"
	"ctqosim/internal/scenario"
)

// TestFromScenarioTweakOverrides checks that per-tier overrides compile
// into a spec tweak that touches exactly the overridden fields.
func TestFromScenarioTweakOverrides(t *testing.T) {
	doc := &scenario.Document{
		Name: "override-test",
		Fleet: scenario.Fleet{
			NX:      0,
			Clients: 100,
			App:     &scenario.TierOverride{Arch: "async", Threads: 64, Cores: 2},
		},
	}
	cfg, err := FromScenario(doc)
	if err != nil {
		t.Fatalf("FromScenario: %v", err)
	}
	if cfg.Tweak == nil {
		t.Fatal("override did not produce a Tweak")
	}
	spec := ntier.Spec("steady", ntier.NX0)
	web := spec.Web
	cfg.Tweak(&spec)
	if spec.App.Arch != ntier.Async || spec.App.Threads != 64 || spec.App.Cores != 2 {
		t.Errorf("app override not applied: %+v", spec.App)
	}
	if spec.Web != web {
		t.Errorf("web tier changed without an override: %+v", spec.Web)
	}

	// A present-but-empty override must not manufacture a Tweak, or the
	// compiled config would carry a no-op closure.
	doc.Fleet.App = &scenario.TierOverride{}
	cfg, err = FromScenario(doc)
	if err != nil {
		t.Fatalf("FromScenario: %v", err)
	}
	if cfg.Tweak != nil {
		t.Error("empty override produced a Tweak")
	}
}

// TestFromScenarioCompileErrors covers the compile-time rejections that
// validation alone cannot catch (they need engine knowledge).
func TestFromScenarioCompileErrors(t *testing.T) {
	doc := &scenario.Document{
		Name:     "resize-on-async",
		Duration: scenario.Duration(10 * time.Second),
		Fleet:    scenario.Fleet{NX: 3, Clients: 100},
		Events: []scenario.Event{
			{At: scenario.Duration(time.Second), Action: scenario.ActionResizePool, Size: 10},
		},
	}
	if _, err := FromScenario(doc); err == nil ||
		!strings.Contains(err.Error(), "resize_pool") || !strings.Contains(err.Error(), "NX=3") {
		t.Errorf("resize_pool on NX=3 error = %v, want a resize_pool/NX=3 explanation", err)
	}

	if _, err := FromScenario(&scenario.Document{}); err == nil {
		t.Error("FromScenario accepted an invalid document")
	}
}

// TestFromScenarioMix checks mix compilation: built-in references and
// inline classes both land in the workload mix.
func TestFromScenarioMix(t *testing.T) {
	doc := &scenario.Document{
		Name: "mix-test",
		Fleet: scenario.Fleet{
			NX:      0,
			Clients: 10,
			Mix: []scenario.MixEntry{
				{Class: "ViewStory", Weight: 3},
				{Name: "HeavyQuery", Weight: 1, DBQueries: 4, DBCPU: scenario.Duration(2 * time.Millisecond)},
			},
		},
	}
	cfg, err := FromScenario(doc)
	if err != nil {
		t.Fatalf("FromScenario: %v", err)
	}
	if cfg.Mix == nil {
		t.Fatal("mix section compiled to nil")
	}
}

// TestChaosScenarioEndToEnd is the acceptance run: the embedded
// chaos-demo scenario — timed injector start/stop, a tier kill and
// restore, a pool resize — must run end to end, its assertions must
// pass against the outcome, and the run must be byte-identical when
// repeated and when scheduled through a multi-worker pool.
func TestChaosScenarioEndToEnd(t *testing.T) {
	docs := ScenarioDocs()
	doc, ok := docs["chaos-demo"]
	if !ok {
		t.Fatal("registry lost chaos-demo")
	}
	if len(doc.Events) == 0 || len(doc.Assertions) == 0 {
		t.Fatalf("chaos-demo must carry events and assertions, got %d/%d",
			len(doc.Events), len(doc.Assertions))
	}
	cfg, err := FromScenario(doc)
	if err != nil {
		t.Fatalf("FromScenario(chaos-demo): %v", err)
	}
	if cfg.Script == nil {
		t.Fatal("chaos-demo compiled without a script")
	}

	capture := func(workers int) [][]byte {
		t.Helper()
		cfgs := []Config{cfg, cfg}
		results, err := NewRunner(workers).Run(cfgs)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		out := make([][]byte, len(results))
		for i, res := range results {
			js, err := res.JSON()
			if err != nil {
				t.Fatalf("JSON: %v", err)
			}
			out[i] = js
		}
		// The two slots are the same config: run-twice identity within
		// one pool.
		if !bytes.Equal(out[0], out[1]) {
			t.Errorf("workers=%d: identical configs diverged:\n%s",
				workers, firstDiff(out[0], out[1]))
		}
		return out
	}

	serial := capture(1)
	parallel := capture(3)
	if !bytes.Equal(serial[0], parallel[0]) {
		t.Errorf("chaos run differs between workers=1 and workers=3:\n%s",
			firstDiff(serial[0], parallel[0]))
	}

	// Assertion evaluation against the real outcome.
	res := mustRun(t, cfg)
	report := scenario.Evaluate(doc.Assertions, res.Outcome())
	if !report.Pass() {
		t.Errorf("chaos-demo assertions failed:\n%s", report)
	}

	// The script's observable effects: the kill/restore window plus the
	// flush stalls must produce VLRTs and drops the baseline run (same
	// fleet, no events) does not show at the DB tier.
	if res.VLRTCount == 0 {
		t.Error("chaos script produced no VLRT requests")
	}
	if res.TotalDrops == 0 {
		t.Error("chaos script produced no drops")
	}
}

// TestResolveScenario checks both ways in: a registry name brings its
// document along for the assertions, a path that exists on disk loads
// that file, and anything else is an unknown scenario.
func TestResolveScenario(t *testing.T) {
	cfg, doc, err := ResolveScenario("fig3")
	if err != nil {
		t.Fatalf("ResolveScenario(fig3): %v", err)
	}
	if doc == nil || cfg.Name != doc.Name || cfg.Name != Scenarios()["fig3"].Name {
		t.Fatalf("fig3 resolved to config %q with document %+v", cfg.Name, doc)
	}
	cfg, doc, err = ResolveScenario("scenarios/cells/nx1-cpu-app.json")
	if err != nil {
		t.Fatalf("ResolveScenario(cell file): %v", err)
	}
	if doc == nil || cfg.Name != doc.Name || cfg.NX != ntier.NX1 {
		t.Fatalf("cell file resolved to config %q (NX=%v) with document %+v", cfg.Name, cfg.NX, doc)
	}
	if _, _, err := ResolveScenario("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown name: err = %v, want an unknown-scenario error", err)
	}
}

// TestScenarioRegistryParsesAndCompiles walks every embedded file —
// registry, templates and matrix cells — through parse and compile, so a
// malformed committed file fails fast, before any run loads it.
func TestScenarioRegistryParsesAndCompiles(t *testing.T) {
	paths := []string{}
	for _, dir := range []string{"scenarios", "scenarios/templates", "scenarios/cells"} {
		entries, err := scenarioFS.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir(%s): %v", dir, err)
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				paths = append(paths, dir+"/"+e.Name())
			}
		}
	}
	if len(paths) < 33 { // 15 registry + 2 templates + 16 cells
		t.Fatalf("embedded only %d scenario files, want >= 33", len(paths))
	}
	for _, p := range paths {
		data, err := scenarioFS.ReadFile(p)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", p, err)
		}
		doc, err := scenario.Parse(p, data)
		if err != nil {
			t.Errorf("parse %s: %v", p, err)
			continue
		}
		if _, err := FromScenario(doc); err != nil {
			t.Errorf("compile %s: %v", p, err)
		}
		// Canonical formatting: marshaling the parsed document and
		// re-parsing must reach a fixed point, so files stay
		// diff-stable under tooling.
		canon, err := doc.Marshal()
		if err != nil {
			t.Errorf("marshal %s: %v", p, err)
			continue
		}
		doc2, err := scenario.Parse(p, canon)
		if err != nil {
			t.Errorf("re-parse %s: %v", p, err)
			continue
		}
		canon2, err := doc2.Marshal()
		if err != nil {
			t.Errorf("re-marshal %s: %v", p, err)
		} else if !bytes.Equal(canon, canon2) {
			t.Errorf("%s: marshal round-trip is not a fixed point", p)
		}
	}
}
