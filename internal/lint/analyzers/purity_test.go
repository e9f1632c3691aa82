package analyzers

import (
	"strings"
	"testing"

	"ctqosim/internal/lint"
	"ctqosim/internal/lint/analysis"
	"ctqosim/internal/lint/analysistest"
	"ctqosim/internal/lint/loader"
)

func TestPurity(t *testing.T) {
	analysistest.Run(t, "testdata", Effects, "purity/flagged", "purity/deep", "purity/mutual")
}

func TestPurityAllowed(t *testing.T) {
	analysistest.RunExpectClean(t, "testdata", Effects, "purity/allowed")
}

// TestPurityChain pins the rendered call chain for the fixture where a
// Tweak closure reaches an I/O call three calls down, across a package
// boundary: the finding must trace root -> normalize -> logStats ->
// depimp.Log down to the write.
func TestPurityChain(t *testing.T) {
	l := loader.New("", "", "testdata/src")
	order, err := l.Closure([]string{"purity/deep"})
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
		fs, err := lint.RunPackage(l, pkg, []*analysis.Analyzer{Effects}, "", facts, nil)
		if err != nil {
			t.Fatalf("run %s: %v", p, err)
		}
		if p == "purity/deep" {
			findings = fs
		}
	}
	var chain []string
	for _, f := range findings {
		if strings.Contains(f.Message, "reaches impure depimp.Log") {
			chain = f.Chain
		}
	}
	if chain == nil {
		t.Fatalf("no transitive finding in %v", findings)
	}
	wantPrefixes := []string{
		"Tweak closure (//lint:nocapturewrite): calls deep.normalize (deep.go:",
		"deep.normalize: calls deep.logStats (deep.go:",
		"deep.logStats: calls depimp.Log (deep.go:",
		"depimp.Log: I/O call os.File.WriteString (depimp.go:",
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
