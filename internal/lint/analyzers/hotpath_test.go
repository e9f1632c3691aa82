package analyzers

import (
	"strings"
	"testing"

	"ctqosim/internal/lint"
	"ctqosim/internal/lint/analysis"
	"ctqosim/internal/lint/analysistest"
	"ctqosim/internal/lint/loader"
)

func TestHotpath(t *testing.T) {
	analysistest.Run(t, "testdata", Hotpath,
		"hotpath/hot", "hotpath/budget", "hotpath/pkglevel")
}

func TestHotpathAllowed(t *testing.T) {
	analysistest.RunExpectClean(t, "testdata", Hotpath, "hotpath/allowed")
}

// TestDeferloop pins the defer-in-loop site hotpath took over from
// deferloop, reported directly and through a callee.
func TestDeferloop(t *testing.T) {
	analysistest.Run(t, "testdata", Hotpath, "hotpath/loops")
}

func TestDeferloopAllowed(t *testing.T) {
	analysistest.RunExpectClean(t, "testdata", Hotpath, "hotpath/deferallowed")
}

// TestHotpathChain pins the rendered call chain for the fixture where
// the allocation sits three packages below the annotation: the finding
// on hot.Run must walk mid -> deep -> leaf down to the make.
func TestHotpathChain(t *testing.T) {
	l := loader.New("", "", "testdata/src")
	order, err := l.Closure([]string{"hotpath/hot"})
	if err != nil {
		t.Fatalf("closure: %v", err)
	}
	facts := analysis.NewStore()
	var findings []lint.Finding
	for _, p := range order {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		fs, err := lint.RunPackage(l, pkg, []*analysis.Analyzer{Hotpath}, "", facts, nil)
		if err != nil {
			t.Fatalf("run %s: %v", p, err)
		}
		if p == "hotpath/hot" {
			findings = fs
		}
	}
	var chain []string
	for _, f := range findings {
		if strings.Contains(f.Message, "function Run allocates") {
			chain = f.Chain
		}
	}
	if chain == nil {
		t.Fatalf("no finding on hot.Run in %v", findings)
	}
	wantPrefixes := []string{
		"mid.Step: call to deep.Go (mid.go:",
		"deep.Go: call to leaf.Alloc (deep.go:",
		"leaf.Alloc: make map (leaf.go:",
	}
	if len(chain) != len(wantPrefixes) {
		t.Fatalf("chain length = %d, want %d: %q", len(chain), len(wantPrefixes), chain)
	}
	for i, want := range wantPrefixes {
		if !strings.HasPrefix(chain[i], want) {
			t.Errorf("chain[%d] = %q, want prefix %q", i, chain[i], want)
		}
	}
}

// TestParseHotpathDirective pins the directive grammar exactly.
func TestParseHotpathDirective(t *testing.T) {
	tests := []struct {
		text   string
		ok     bool
		budget int
		err    bool
	}{
		{"//lint:hotpath", true, 0, false},
		{"//lint:hotpath DES kernel", true, 0, false},
		{"//lint:hotpath\tallocs=3", true, 3, false},
		{"//lint:hotpath allocs=0", true, 0, false},
		{"//lint:hotpath allocs=2 amortized growth", true, 2, false},
		{"//lint:hotpath allocs=-1", true, 0, true},
		{"//lint:hotpath allocs=x", true, 0, true},
		{"//lint:hotpath allocs=", true, 0, true},
		{"//lint:hotpath frames=2", true, 0, true},
		{"//lint:hotpathX", false, 0, false},
		{"//lint:hotpath2", false, 0, false},
		{"// lint:hotpath", false, 0, false},
		{"//lint:allow hotpath", false, 0, false},
		{"", false, 0, false},
	}
	for _, tt := range tests {
		ok, budget, err := parseHotpathDirective(tt.text)
		if ok != tt.ok || budget != tt.budget || (err != nil) != tt.err {
			t.Errorf("parseHotpathDirective(%q) = (%v, %d, %v), want (%v, %d, err=%v)",
				tt.text, ok, budget, err, tt.ok, tt.budget, tt.err)
		}
	}
}

// FuzzParseHotpathDirective holds the parser to its invariants on
// arbitrary comment text: no panics, non-directives are fully inert,
// well-formed directives never yield a negative budget, and parsing is
// deterministic.
func FuzzParseHotpathDirective(f *testing.F) {
	for _, seed := range []string{
		"//lint:hotpath",
		"//lint:hotpath DES kernel event loop",
		"//lint:hotpath allocs=2 amortized ring growth",
		"//lint:hotpath allocs=-1",
		"//lint:hotpath allocs=00",
		"//lint:hotpath frames=1",
		"//lint:hotpathX",
		"//lint:allow hotpath cold branch",
		"//lint:hotpath\tallocs=9999999999999999999",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ok, budget, err := parseHotpathDirective(text)
		ok2, budget2, err2 := parseHotpathDirective(text)
		if ok != ok2 || budget != budget2 || (err == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic parse of %q", text)
		}
		if !ok && (budget != 0 || err != nil) {
			t.Fatalf("non-directive %q leaked budget=%d err=%v", text, budget, err)
		}
		if !strings.HasPrefix(text, "//lint:hotpath") && ok {
			t.Fatalf("%q parsed as a directive without the prefix", text)
		}
		if ok && err == nil && budget < 0 {
			t.Fatalf("well-formed %q produced negative budget %d", text, budget)
		}
		if err != nil && budget != 0 {
			t.Fatalf("malformed %q leaked budget %d", text, budget)
		}
	})
}
