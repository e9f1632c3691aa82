// Package analysistest runs an analyzer over GOPATH-style fixture
// packages under a testdata directory and checks its diagnostics against
// "// want" expectations, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line may carry one or more expectations:
//
//	time.Now() // want `wall-clock`
//	foo()      // want "first" "second"
//
// A directive comment can carry its expectation inline after a second
// "//" (the only way to attach a want to a line that is itself one
// comment): //lint:hotpath allocs=x // want `malformed`
//
// Each expectation is a regular expression that must match the message of
// exactly one diagnostic reported on that line; diagnostics with no
// matching expectation, and expectations with no matching diagnostic,
// both fail the test. //lint:allow suppression is applied before
// matching, so fixtures can also demonstrate the escape hatch.
//
// A clause of the form name:"regexp" is a fact expectation instead: the
// object called name declared on that line must carry an exported fact
// whose fmt.Sprint matches the pattern (the x/tools convention, used by
// the allocs and purity fixtures to pin AllocsFact and EffectsFact
// summaries):
//
//	func Grow(s []int) []int { // want Grow:`allocs\(append may grow\)`
//
// Unclaimed fact expectations fail the test; facts without expectations
// are ignored (facts are internal currency — most fixtures care only
// about the diagnostics they feed).
package analysistest

import (
	"fmt"
	"go/ast"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ctqosim/internal/lint"
	"ctqosim/internal/lint/analysis"
	"ctqosim/internal/lint/loader"
)

// expectation is one parsed "// want" clause. A non-empty obj makes it a
// fact expectation (name:"pattern") instead of a diagnostic one.
type expectation struct {
	file    string
	line    int
	obj     string
	re      *regexp.Regexp
	matched bool
}

// wantRx matches the clauses after a "want" keyword: an optional
// "name:" prefix followed by a quoted pattern.
var wantRx = regexp.MustCompile("(?:([A-Za-z_][A-Za-z0-9_]*):)?(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// parseWants extracts expectations from a file's comments.
func parseWants(t *testing.T, l *loader.Loader, file *ast.File) []expectation {
	t.Helper()
	var out []expectation
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), "/*"))
			rest, ok := strings.CutPrefix(text, "want ")
			if !ok {
				// Inline form: a directive comment may carry its own
				// expectation after a second "//", e.g.
				// "//lint:hotpath allocs=x // want `malformed`".
				if i := strings.Index(c.Text, "// want "); i > 0 {
					rest, ok = c.Text[i+len("// want "):], true
				}
			}
			if !ok {
				continue
			}
			pos := l.Fset.Position(c.Pos())
			for _, m := range wantRx.FindAllStringSubmatch(rest, -1) {
				name, q := m[1], m[2]
				pat := q
				if strings.HasPrefix(q, "\"") {
					u, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					pat = u
				} else {
					pat = strings.Trim(q, "`")
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
				}
				out = append(out, expectation{file: pos.Filename, line: pos.Line, obj: name, re: re})
			}
		}
	}
	return out
}

// analyzeWithDeps loads the fixture package at path together with its
// fixture-local dependency closure, runs the analyzer over every package
// of the closure in dependency order — sharing one fact store, so facts
// exported by dependencies are visible, exactly as in a real lint run —
// and returns the subject package with the analyzer's findings on it
// (diagnostics in dependency packages are discarded). A nil package
// means loading failed; errors are reported through t.
func analyzeWithDeps(t *testing.T, srcRoot string, a *analysis.Analyzer, path string) (*loader.Loader, *loader.Package, []lint.Finding, *analysis.Store) {
	t.Helper()
	l := loader.New("", "", srcRoot)
	order, err := l.Closure([]string{path})
	if err != nil {
		t.Errorf("closure %s: %v", path, err)
		return l, nil, nil, nil
	}
	facts := analysis.NewStore()
	var subject *loader.Package
	var findings []lint.Finding
	for _, p := range order {
		pkg, err := l.Load(p)
		if err != nil {
			t.Errorf("load %s: %v", p, err)
			return l, nil, nil, nil
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", p, terr)
		}
		fs, err := lint.RunPackage(l, pkg, []*analysis.Analyzer{a}, "", facts, nil)
		if err != nil {
			t.Errorf("run %s on %s: %v", a.Name, p, err)
			return l, nil, nil, nil
		}
		if p == path {
			subject, findings = pkg, fs
		}
	}
	return l, subject, findings, facts
}

// Run loads each fixture package from testdata/src/<path> (with its
// fixture-local dependency closure, for analyzers that rely on facts),
// applies the analyzer, and reports mismatches between diagnostics and
// expectations through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	srcRoot := testdata + "/src"
	for _, path := range paths {
		l, pkg, findings, facts := analyzeWithDeps(t, srcRoot, a, path)
		if pkg == nil {
			continue
		}
		lint.Sort(findings)

		var wants []expectation
		for _, f := range pkg.Files {
			wants = append(wants, parseWants(t, l, f)...)
		}
		for _, f := range findings {
			if !claim(wants, f) {
				t.Errorf("%s: unexpected diagnostic: %s", a.Name, f)
			}
		}
		claimFacts(l, facts, wants)
		for _, w := range wants {
			if w.matched {
				continue
			}
			if w.obj != "" {
				t.Errorf("%s: expected fact on %s at %s:%d matching %q, got none",
					a.Name, w.obj, w.file, w.line, w.re)
			} else {
				t.Errorf("%s: expected diagnostic at %s:%d matching %q, got none",
					a.Name, w.file, w.line, w.re)
			}
		}
	}
}

// claimFacts matches fact expectations against the store: the object must
// be named by the clause, declared on the expectation's line, and carry a
// fact whose fmt.Sprint matches.
func claimFacts(l *loader.Loader, facts *analysis.Store, wants []expectation) {
	if facts == nil {
		return
	}
	for _, e := range facts.Entries() {
		pos := l.Fset.Position(e.Obj.Pos())
		rendered := fmt.Sprint(e.Fact)
		for i := range wants {
			w := &wants[i]
			if w.matched || w.obj == "" || w.obj != e.Obj.Name() ||
				w.line != pos.Line || w.file != pos.Filename {
				continue
			}
			if w.re.MatchString(rendered) {
				w.matched = true
				break
			}
		}
	}
}

// claim marks the first unmatched expectation covering f and reports
// whether one existed.
func claim(wants []expectation, f lint.Finding) bool {
	for i := range wants {
		w := &wants[i]
		if w.matched || w.obj != "" || w.line != f.Line || w.file != f.File {
			continue
		}
		if w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// RunExpectClean is a convenience for fixtures that must produce no
// diagnostics at all (e.g. an allow-listed package).
func RunExpectClean(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	for _, path := range paths {
		_, pkg, findings, _ := analyzeWithDeps(t, testdata+"/src", a, path)
		if pkg == nil {
			continue
		}
		for _, f := range findings {
			t.Errorf("%s: unexpected diagnostic in clean fixture: %s", a.Name, f)
		}
	}
}

// String implements fmt.Stringer for error messages.
func (e expectation) String() string {
	return fmt.Sprintf("%s:%d ~ %s", e.file, e.line, e.re)
}
