// Package lint is the driver behind cmd/ctqo-lint: it loads packages,
// runs the determinism analyzers over them, applies //lint:allow
// suppression comments and renders findings as text or JSON.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"ctqosim/internal/lint/analysis"
	"ctqosim/internal/lint/loader"
)

// Finding is one diagnostic after suppression, with a resolved position.
type Finding struct {
	// Analyzer names the check that fired.
	Analyzer string `json:"analyzer"`
	// File is the source file, relative to the module root when possible.
	File string `json:"file"`
	// Line and Col locate the finding (1-based).
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message describes the problem.
	Message string `json:"message"`
	// Chain, when present, traces the finding through intermediate calls
	// to its root cause — the call chain from a //lint:hotpath function
	// down to the allocating construct, or from an effects root down to
	// the effect.
	Chain []string `json:"chain,omitempty"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// allowDirective is the suppression comment prefix: a comment of the form
// "//lint:allow name[,name...] [reason]" on the flagged line, or on the
// line directly above it, silences those analyzers for that line.
const allowDirective = "//lint:allow"

// parseAllowNames parses one comment's text as an allow directive and
// returns the analyzer names it silences, or nil when the comment is not
// a well-formed directive: the prefix must be followed by a space or tab
// (or end the comment, which silences nothing), and the first field is
// the comma-separated name list — everything after it is free-form
// justification.
func parseAllowNames(text string) []string {
	rest, ok := strings.CutPrefix(text, allowDirective)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil
	}
	return strings.Split(fields[0], ",")
}

// allowSite is one parsed //lint:allow directive with per-name usage
// tracking for the stale-suppression audit.
type allowSite struct {
	file      string // absolute, as the FileSet renders it
	line, col int
	names     []string // in written order
	used      map[string]bool
}

// allowTable indexes one package's allow directives by file and line.
type allowTable struct {
	byLine map[string]map[int]*allowSite
	sites  []*allowSite // in scan order (files sorted, comments by position)
}

// buildAllowTable parses every allow directive in the files.
func buildAllowTable(fset *token.FileSet, files []*ast.File) *allowTable {
	t := &allowTable{byLine: make(map[string]map[int]*allowSite)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				parsed := parseAllowNames(c.Text)
				if parsed == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := t.byLine[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*allowSite)
					t.byLine[pos.Filename] = byLine
				}
				site := byLine[pos.Line]
				if site == nil {
					site = &allowSite{
						file: pos.Filename, line: pos.Line, col: pos.Column,
						used: make(map[string]bool),
					}
					byLine[pos.Line] = site
					t.sites = append(t.sites, site)
				}
				site.names = append(site.names, parsed...)
			}
		}
	}
	return t
}

// suppressed reports whether a finding at pos is covered by an allow
// directive on its own line or the line above, marking the directive
// used when it is.
func (t *allowTable) suppressed(pos token.Position, analyzer string) bool {
	byLine := t.byLine[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		site := byLine[line]
		if site == nil {
			continue
		}
		for _, name := range site.names {
			if name == analyzer {
				site.used[name] = true
				return true
			}
		}
	}
	return false
}

// AllowAudit is the stale-suppression audit behind ctqo-lint's
// -unused-allow mode: it accumulates every //lint:allow directive seen in
// the audited packages, together with which names actually suppressed a
// finding, and renders the dead ones as findings of the synthetic
// "unused-allow" analyzer.
type AllowAudit struct {
	// Ran holds the names of the analyzers exercised this run. A
	// directive naming an analyzer that did not run is skipped, not
	// reported — it may be load-bearing under the full suite.
	Ran map[string]bool
	// Valid holds every recognized analyzer name; directives naming
	// anything else are reported as unknown regardless of Ran.
	Valid map[string]bool

	sites []*allowSite
}

// NewAllowAudit builds an audit for a run of ran analyzers, where valid
// is the full known suite.
func NewAllowAudit(ran, valid []*analysis.Analyzer) *AllowAudit {
	a := &AllowAudit{Ran: make(map[string]bool), Valid: make(map[string]bool)}
	for _, an := range ran {
		a.Ran[an.Name] = true
	}
	for _, an := range valid {
		a.Valid[an.Name] = true
	}
	return a
}

// Findings renders the audit: one finding per unknown or unused name, in
// directive order. Paths are reported relative to relDir when possible.
func (a *AllowAudit) Findings(relDir string) []Finding {
	var out []Finding
	for _, site := range a.sites {
		file := site.file
		if relDir != "" {
			if rel, err := filepath.Rel(relDir, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
		}
		for _, name := range site.names {
			var msg string
			switch {
			case !a.Valid[name]:
				msg = fmt.Sprintf("//lint:allow %s: unknown analyzer", name)
			case a.Ran[name] && !site.used[name]:
				msg = fmt.Sprintf("unused //lint:allow %s: no finding is suppressed here; remove the stale directive", name)
			default:
				continue
			}
			out = append(out, Finding{
				Analyzer: "unused-allow",
				File:     file, Line: site.line, Col: site.col,
				Message: msg,
			})
		}
	}
	return out
}

// RunPackage applies the analyzers to one loaded package and returns the
// surviving findings, unsorted. Paths are reported relative to relDir
// when possible. facts is the run-wide fact store; pass the same store
// for every package of a run (in loader.Closure order) so facts exported
// by dependency packages are visible here. Nil is accepted for runs that
// need no cross-package facts. audit, when non-nil, registers this
// package's //lint:allow directives for the stale-suppression report.
func RunPackage(l *loader.Loader, pkg *loader.Package, analyzers []*analysis.Analyzer, relDir string, facts *analysis.Store, audit *AllowAudit) ([]Finding, error) {
	allowed := buildAllowTable(l.Fset, pkg.Files)
	if audit != nil {
		audit.sites = append(audit.sites, allowed.sites...)
	}
	var out []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      l.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
		}
		pass.Allowed = func(pos token.Pos) bool {
			return allowed.suppressed(l.Fset.Position(pos), a.Name)
		}
		pass.Report = func(d analysis.Diagnostic) {
			pos := l.Fset.Position(d.Pos)
			if allowed.suppressed(pos, a.Name) {
				return
			}
			file := pos.Filename
			if relDir != "" {
				if rel, err := filepath.Rel(relDir, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
			}
			out = append(out, Finding{
				Analyzer: a.Name,
				File:     file,
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  d.Message,
				Chain:    d.Chain,
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	return out, nil
}

// Run applies the analyzers to every package named by paths and returns
// findings sorted by position for deterministic output. The whole local
// dependency closure of paths is analyzed — in dependency order, sharing
// one fact store, so facts propagate across package boundaries — but
// only findings in the requested packages are reported. audit, when
// non-nil, collects the requested packages' //lint:allow directives and
// appends its stale-suppression findings to the result.
func Run(l *loader.Loader, paths []string, analyzers []*analysis.Analyzer, relDir string, audit *AllowAudit) ([]Finding, error) {
	order, err := l.Closure(paths)
	if err != nil {
		return nil, err
	}
	requested := make(map[string]bool, len(paths))
	for _, path := range paths {
		requested[path] = true
	}
	facts := analysis.NewStore()
	var out []Finding
	for _, path := range order {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		pkgAudit := audit
		if !requested[path] {
			pkgAudit = nil // dependencies' directives are not audited
		}
		fs, err := RunPackage(l, pkg, analyzers, relDir, facts, pkgAudit)
		if err != nil {
			return nil, err
		}
		if requested[path] {
			out = append(out, fs...)
		}
	}
	if audit != nil {
		out = append(out, audit.Findings(relDir)...)
	}
	Sort(out)
	return out, nil
}

// Sort orders findings by file, line, column, analyzer, message.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// WriteJSON renders findings as an indented JSON array (empty array, not
// null, when there are none) followed by a newline.
func WriteJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	data, err := json.MarshalIndent(fs, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// WriteText renders findings one per line.
func WriteText(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}
