// Package analyzers holds the ctqo-lint checks that keep the simulator
// reproducible and fast, one check per contract. The determinism family
// (DESIGN.md §8): no wall-clock reads or multi-case selects in
// simulated-time packages (wallclock), no global (or time-seeded)
// math/rand (seededrand), no map iteration order reaching output, slice
// order or float arithmetic (maporder), no writes through shared Config
// pointer fields or captured state in worker-run closures (sharedmut, a
// cross-package facts analysis), no enum switches that silently drop
// members (exhaustive). The hot-path allocation family (§12): allocs
// computes bottom-up cross-package AllocsFact summaries, and hotpath
// requires //lint:hotpath functions to have an allocation-free
// transitive call graph, within an optional allocs=N budget. On the
// call-graph engine (§15): purity (//lint:pure functions and
// //lint:nocapturewrite closures must reach no shared write, I/O or
// nondeterminism, with the call chain rendered).
//
// The checks encode the repo's determinism contract (see DESIGN.md):
// the paper's CTQO results are only reproducible if a fixed seed replays
// bit-for-bit, so the properties are enforced mechanically rather than by
// review. Every analyzer honours a "//lint:allow <name>" comment on the
// flagged line or the line above it.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ctqosim/internal/lint/analysis"
)

// All returns the full suite in stable order. Allocs precedes Hotpath so
// same-package facts are exported before the annotations are checked
// (drivers also honour Hotpath's Requires when the list is filtered).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Wallclock, Seededrand, Maporder, Sharedmut, Exhaustive,
		Allocs, Hotpath, Purity,
	}
}

// funcUse resolves an identifier to the package-level function it uses,
// or nil if it is anything else (variable, type, method, builtin...).
func funcUse(info *types.Info, id *ast.Ident) *types.Func {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		// Methods share names with the package-level API (e.g.
		// (*rand.Rand).Intn, (time.Time).After); they are fine.
		return nil
	}
	return fn
}

// usesPkgFunc reports whether the subtree contains a reference to one of
// the named package-level functions of pkgPath.
func usesPkgFunc(info *types.Info, n ast.Node, pkgPath string, names map[string]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if fn := funcUse(info, id); fn != nil && fn.Pkg().Path() == pkgPath && names[fn.Name()] {
			found = true
		}
		return !found
	})
	return found
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// directiveAllows parses one comment's text with the driver's
// //lint:allow grammar and reports whether it names the given analyzer.
// Analyzers that consume suppressions at fact-construction time (allocs,
// purity) use it to strip sites before their facts propagate.
func directiveAllows(text, name string) bool {
	rest, ok := strings.CutPrefix(text, "//lint:allow")
	if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return false
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n == name {
			return true
		}
	}
	return false
}

// allowedLinesFor collects the lines carrying //lint:allow directives
// naming the analyzer, mapped to the directive comment's position (so
// consumption can be reported to the driver's stale-suppression audit).
func allowedLinesFor(pass *analysis.Pass, name string) map[string]map[int]token.Pos {
	out := make(map[string]map[int]token.Pos)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !directiveAllows(c.Text, name) {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int]token.Pos)
					out[pos.Filename] = lines
				}
				lines[pos.Line] = c.Pos()
			}
		}
	}
	return out
}

// consumeAllow reports whether a site at pos is covered by an allow
// directive (own line or the line above) in the allowed table, notifying
// the driver's audit hook when it is.
func consumeAllow(pass *analysis.Pass, allowed map[string]map[int]token.Pos, pos token.Pos, name string) bool {
	p := pass.Fset.Position(pos)
	lines := allowed[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		if cpos, ok := lines[line]; ok {
			pass.MarkAllowUsed(cpos, name)
			return true
		}
	}
	return false
}
