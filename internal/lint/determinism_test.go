package lint_test

import (
	"bytes"
	"fmt"
	"go/types"
	"os"
	"testing"

	"ctqosim/internal/lint"
	"ctqosim/internal/lint/analysis"
	"ctqosim/internal/lint/analyzers"
	"ctqosim/internal/lint/loader"
)

// runEffects builds one fresh loader over this module, runs the effects
// analyzer across the dependency closure of paths, and returns the fact
// store and the findings.
func runEffects(t *testing.T, paths ...string) (*analysis.Store, []lint.Finding) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modDir, modPath, err := loader.FindModule(wd)
	if err != nil {
		t.Fatal(err)
	}
	l := loader.New(modPath, modDir, "")
	order, err := l.Closure(paths)
	if err != nil {
		t.Fatal(err)
	}
	facts := analysis.NewStore()
	var all []lint.Finding
	for _, path := range order {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		fs, err := lint.RunPackage(l, pkg, []*analysis.Analyzer{analyzers.Effects}, modDir, facts, nil)
		if err != nil {
			t.Fatalf("analyze %s: %v", path, err)
		}
		all = append(all, fs...)
	}
	return facts, all
}

// analyzeEffectsClosure runs effects over the scenario engine and the
// core simulator — packages that carry //lint:pure, //lint:sharedptr and
// //lint:nocapturewrite contracts — and returns the two determinism
// witnesses: every EffectsFact rendered with its chains and mutated
// positions, and the findings rendered as JSON.
func analyzeEffectsClosure(t *testing.T) (summaries, findings []byte) {
	t.Helper()
	facts, all := runEffects(t, "ctqosim/internal/scenario", "ctqosim/internal/core")
	var sums bytes.Buffer
	for _, e := range facts.Entries() {
		fact, ok := e.Fact.(*analyzers.EffectsFact)
		if !ok {
			continue
		}
		fmt.Fprintf(&sums, "%s: %v\n", types.ObjectString(e.Obj, nil), fact)
		for _, s := range fact.Sites {
			fmt.Fprintf(&sums, "  %s (%s:%d) %q\n", s.What, s.File, s.Line, s.Chain)
		}
	}
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, all); err != nil {
		t.Fatal(err)
	}
	return sums.Bytes(), buf.Bytes()
}

// TestCallGraphDeterminism is the summaries' load-twice contract: two
// independent loads of the same package closure — fresh loader, fresh
// FileSet, fresh fact store each time — must produce byte-identical
// effects summaries (sites, chains and mutated positions) and
// byte-identical findings. Map iteration anywhere in closure expansion,
// the fixpoint, site ordering or chain rendering would break this.
func TestCallGraphDeterminism(t *testing.T) {
	sums1, findings1 := analyzeEffectsClosure(t)
	sums2, findings2 := analyzeEffectsClosure(t)
	if len(sums1) == 0 {
		t.Fatal("no EffectsFact exported: the closure of core and scenario has functions with effects")
	}
	if !bytes.Equal(sums1, sums2) {
		t.Errorf("effects summaries differ between loads:\nfirst load:\n%s\nsecond load:\n%s", sums1, sums2)
	}
	if !bytes.Equal(findings1, findings2) {
		t.Errorf("effects findings differ between loads:\nfirst load:\n%s\nsecond load:\n%s", findings1, findings2)
	}
}
