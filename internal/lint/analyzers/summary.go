package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"

	"ctqosim/internal/lint/analysis"
)

// The summary engine under the two interprocedural analyzers, hotpath
// (allocation sites) and effects (shared writes, I/O, nondeterminism):
// each analyzer scans a function body for its own sites, and the engine
// folds same-package callees to a fixpoint and imported callees through
// their exported facts, strips sites carrying the analyzer's
// //lint:allow directive, and caps and renders each function's sites
// with the call chain down to the underlying construct (DESIGN.md §15).

// maxSites bounds a function's exported summary: callers only need to
// know the function has sites and where they start, not every site. The
// earliest sites (by position) are kept.
const maxSites = 4

// maxChainDepth bounds the rendered call chain of one site.
const maxChainDepth = 8

// Site is one construct a function may execute, directly or through a
// callee.
type Site struct {
	// What names the construct ("make map", "call to pkg.Func", "I/O call
	// os.File.Write", ...).
	What string
	// File (base name) and Line locate the construct.
	File string
	Line int
	// Chain, present on call sites, traces through intermediate callees
	// down to the underlying construct; each entry is a pre-rendered
	// "func: what (file:line)" step.
	Chain []string
}

// site is the in-progress form of a Site.
type site struct {
	pos  token.Pos
	what string
	// callee is set on calls into the same package: the chain is resolved
	// at render time, after the fixpoint converges.
	callee *types.Func
	// chain is pre-rendered on calls into already-analyzed imports.
	chain []string
}

// summary is one function's in-progress summary. A root that is not a
// declaration (a closure body) has a nil fn and decl.
type summary struct {
	fn    *types.Func
	decl  *ast.FuncDecl
	sites map[token.Pos]*site
	// mutates holds, ascending, the input positions the function writes
	// through (effects only, see EffectsFact.Mutates).
	mutates []int
}

func newSummary(fn *types.Func, decl *ast.FuncDecl) *summary {
	return &summary{fn: fn, decl: decl, sites: make(map[token.Pos]*site)}
}

// engine summarizes one package's functions for one analyzer.
type engine struct {
	pass *analysis.Pass
	// funcs are the package's declarations with bodies in file order, the
	// fixpoint's deterministic iteration order.
	funcs []*summary
	byObj map[*types.Func]*summary
	// imported returns the exported sites of a function declared in an
	// already-analyzed package.
	imported func(*types.Func) []Site
}

func newEngine(pass *analysis.Pass, imported func(*types.Func) []Site) *engine {
	e := &engine{pass: pass, byObj: make(map[*types.Func]*summary), imported: imported}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				sum := newSummary(fn, fd)
				e.funcs = append(e.funcs, sum)
				e.byObj[fn] = sum
			}
		}
	}
	return e
}

// fixpoint rescans every function until no summary grows, so
// same-package (mutually) recursive call chains converge.
func (e *engine) fixpoint(scan func(*summary) bool) {
	for changed := true; changed; {
		changed = false
		for _, sum := range e.funcs {
			if scan(sum) {
				changed = true
			}
		}
	}
}

// add records a direct site; it reports growth.
func (e *engine) add(sum *summary, pos token.Pos, what string) bool {
	return e.insert(sum, &site{pos: pos, what: what})
}

// addCall records a call at pos to a callee that has sites: the
// converging summary of a same-package callee, or the fact of an
// imported one. verb prefixes the callee's name in the site.
func (e *engine) addCall(sum *summary, pos token.Pos, callee *types.Func, verb string) bool {
	if _, dup := sum.sites[pos]; dup {
		return false // known from an earlier pass: skip the lookups
	}
	if local, ok := e.byObj[callee]; ok {
		return len(local.sites) > 0 && callee != sum.fn &&
			e.insert(sum, &site{pos: pos, what: verb + " " + funcName(callee), callee: callee})
	}
	sites := e.imported(callee)
	if len(sites) == 0 {
		return false
	}
	first := sites[0]
	chain := append([]string{renderSite(funcName(callee), first.What, first.File, first.Line)}, first.Chain...)
	return e.insert(sum, &site{pos: pos, what: verb + " " + funcName(callee), chain: chain})
}

// insert records a site unless one is known at its position or the
// analyzer's //lint:allow strips it, so a suppressed site never taints a
// caller.
func (e *engine) insert(sum *summary, s *site) bool {
	if _, dup := sum.sites[s.pos]; dup || (e.pass.Allowed != nil && e.pass.Allowed(s.pos)) {
		return false
	}
	sum.sites[s.pos] = s
	return true
}

// sorted returns a summary's sites by position.
func sorted(sum *summary) []*site {
	out := make([]*site, 0, len(sum.sites))
	for _, s := range sum.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// render returns a summary's first maxSites sites by position, with
// their chains resolved: the form exported as a fact.
func (e *engine) render(sum *summary) []Site {
	ordered := sorted(sum)
	if len(ordered) > maxSites {
		ordered = ordered[:maxSites]
	}
	out := make([]Site, len(ordered))
	for i, s := range ordered {
		out[i] = e.renderOne(sum, s)
	}
	return out
}

// renderOne resolves one site of sum.
func (e *engine) renderOne(sum *summary, s *site) Site {
	chain := s.chain
	if s.callee != nil {
		chain = e.chainFor(s.callee, map[*types.Func]bool{sum.fn: true})
	}
	if len(chain) > maxChainDepth {
		chain = chain[:maxChainDepth]
	}
	p := e.pass.Fset.Position(s.pos)
	return Site{What: s.what, File: filepath.Base(p.Filename), Line: p.Line, Chain: chain}
}

// chainFor renders the call chain starting at a same-package callee,
// following each function's first site by position through further
// same-package calls, with a visited set guarding recursion.
func (e *engine) chainFor(fn *types.Func, visited map[*types.Func]bool) []string {
	var chain []string
	for fn != nil && len(chain) < maxChainDepth && !visited[fn] {
		visited[fn] = true
		sum, ok := e.byObj[fn]
		if !ok || len(sum.sites) == 0 {
			break
		}
		var first *site
		for _, s := range sum.sites {
			if first == nil || s.pos < first.pos {
				first = s
			}
		}
		p := e.pass.Fset.Position(first.pos)
		chain = append(chain, renderSite(funcName(fn), first.what, filepath.Base(p.Filename), p.Line))
		if first.callee != nil {
			fn = first.callee
			continue
		}
		chain = append(chain, first.chain...)
		break
	}
	return chain
}

// funcName renders a function as the last element of its package path
// followed by its name, methods with their receiver type: "core.Runner.Do".
func funcName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = path.Base(fn.Pkg().Path()) + "." + name
	}
	return name
}

// renderSite formats one chain step.
func renderSite(fn, what, file string, line int) string {
	return fmt.Sprintf("%s: %s (%s:%d)", fn, what, file, line)
}

// calleeFunc resolves a call to its static callee: a named function or a
// concrete method, with the receiver expression for method calls (fact
// position 0). Calls through interfaces, function values and method
// expressions resolve to nil, the documented boundary of every summary.
func calleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, ast.Expr) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn, nil
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil, nil
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, nil
			}
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil, nil
			}
			return fn, fun.X
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn, nil // qualified package-level function
		}
	}
	return nil, nil
}

// typeOf returns the type of e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}
