// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis API: an Analyzer is a named check that
// runs over one type-checked package at a time and reports Diagnostics.
//
// The repo builds offline — the x/tools module is deliberately not a
// dependency — so this package re-creates the small slice of the API the
// ctqo-lint suite needs (Analyzer, Pass, Diagnostic) on top of the
// standard library's go/ast and go/types. Analyzers written against it
// port to the real go/analysis framework by changing one import path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, command-line flags and
	// //lint:allow suppression comments. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph help text; its first line is the summary.
	Doc string
	// FactTypes lists the fact types the analyzer exports and imports,
	// one (typed, possibly nil) pointer value per type. An analyzer may
	// only export or import facts whose type appears here.
	FactTypes []Fact
	// Run applies the check to a single package and reports diagnostics
	// through pass.Report. The returned value is ignored by this driver
	// (kept in the signature for go/analysis compatibility).
	Run func(*Pass) (any, error)
}

// Pass hands an Analyzer one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees (comments included).
	Files []*ast.File
	// Pkg is the type-checked package. It may be incomplete if the
	// package had type errors; analyzers must tolerate nil objects in
	// TypesInfo lookups.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// Facts is the run-wide fact store. The driver passes the same store
	// to every pass of a run, and analyzes packages in dependency order,
	// so facts exported while analyzing an import are visible to its
	// dependents. Nil is tolerated: a store is created lazily, scoped to
	// this pass (same-package facts still work).
	Facts *Store
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
	// Allowed, when set by the driver, reports whether a //lint:allow
	// directive naming this analyzer covers pos (on its line or the line
	// above) and records the directive as used for the stale-suppression
	// audit (-unused-allow). hotpath and effects call it to strip
	// suppressed sites at fact-construction time, before any diagnostic
	// reaches the driver's own suppression pass.
	Allowed func(pos token.Pos) bool
}

// Fact is a datum an analyzer attaches to a types.Object while analyzing
// the package that declares it, and reads back when analyzing dependent
// packages — the cross-package channel of the facts mechanism, modeled on
// golang.org/x/tools/go/analysis facts. A fact type must be a pointer to
// a struct and carry the AFact marker method. Facts are namespaced by
// their Go type: two analyzers using distinct fact types never collide,
// and two that declare the same fact type share it. Access is gated by
// FactTypes: an analyzer can only touch fact types it declares.
//
// Object identity is what threads facts across packages: the driver loads
// packages in dependency order and reuses each loaded package as the
// type-checker's import, so the *types.Func an analyzer exported a fact
// on in package a is the same object a dependent package b resolves
// through its own types.Info.
type Fact interface{ AFact() }

// Store holds the facts exported during one lint run.
type Store struct {
	m map[storeKey]Fact
}

// storeKey namespaces a fact by annotated object and fact type. The
// analyzer name is deliberately not part of the key: the fact type is the
// namespace, so analyzers that declare a shared fact type see each
// other's exports.
type storeKey struct {
	obj types.Object
	typ reflect.Type
}

// NewStore returns an empty fact store.
func NewStore() *Store { return &Store{m: make(map[storeKey]Fact)} }

// Entry is one stored (object, fact) pair.
type Entry struct {
	Obj  types.Object
	Fact Fact
}

// Entries returns the store's contents sorted by object position, object
// name, then fact type name — a deterministic enumeration for tests and
// fixture fact expectations.
func (s *Store) Entries() []Entry {
	if s == nil {
		return nil
	}
	out := make([]Entry, 0, len(s.m))
	for k, f := range s.m {
		out = append(out, Entry{Obj: k.obj, Fact: f})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Obj.Pos() != b.Obj.Pos() {
			return a.Obj.Pos() < b.Obj.Pos()
		}
		if a.Obj.Name() != b.Obj.Name() {
			return a.Obj.Name() < b.Obj.Name()
		}
		return reflect.TypeOf(a.Fact).String() < reflect.TypeOf(b.Fact).String()
	})
	return out
}

// factType validates that fact is a non-nil pointer to a struct and
// returns its reflect type.
func factType(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("fact %T is not a pointer", fact))
	}
	return t
}

// key builds the store key for this pass's analyzer, checking that the
// fact type was declared in the analyzer's FactTypes.
func (p *Pass) key(obj types.Object, fact Fact) storeKey {
	if obj == nil {
		panic(fmt.Sprintf("%s: fact %T on nil object", p.Analyzer.Name, fact))
	}
	t := factType(fact)
	for _, ft := range p.Analyzer.FactTypes {
		if reflect.TypeOf(ft) == t {
			return storeKey{obj: obj, typ: t}
		}
	}
	panic(fmt.Sprintf("%s: fact type %v not declared in FactTypes", p.Analyzer.Name, t))
}

// ExportObjectFact attaches fact to obj for later passes of the same
// analyzer. Exporting twice overwrites: the last fact wins.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.Facts == nil {
		p.Facts = NewStore()
	}
	p.Facts.m[p.key(obj, fact)] = fact
}

// ImportObjectFact copies the fact of fact's type previously exported on
// obj (by any analyzer declaring that type, in this package or a
// dependency) into *fact and reports whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.Facts == nil {
		return false
	}
	stored, ok := p.Facts.m[p.key(obj, fact)]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos anchors the finding in the source.
	Pos token.Pos
	// Message is the human-readable description.
	Message string
	// Chain optionally traces the finding through intermediate calls down
	// to the root cause (hotpath and effects report the call chain from
	// an annotated function to the allocating construct or the effect).
	// Each entry is a pre-rendered "func: what (file:line)" step.
	Chain []string
}
