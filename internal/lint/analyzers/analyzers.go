// Package analyzers holds the ctqo-lint checks that keep the simulator
// reproducible and fast, one check per contract. The determinism family
// (DESIGN.md §8): no wall-clock reads or multi-case selects in
// simulated-time packages (wallclock), no global (or time-seeded)
// math/rand (seededrand), no map iteration order reaching output, slice
// order or float arithmetic (maporder), no enum switches that silently
// drop members (exhaustive), and effects: no writes through shared
// Config pointer fields, no captured-state writes in worker-run
// closures, and no shared write, I/O or nondeterminism reachable from
// //lint:pure functions and //lint:nocapturewrite closures. The hot-path
// allocation contract (§12): hotpath requires //lint:hotpath functions
// to have an allocation-free transitive call graph, within an optional
// allocs=N budget. Hotpath and effects fold per-function summaries
// bottom-up across packages on one summary engine (summary.go, §15) and
// render the call chain of each finding.
//
// The checks encode the repo's determinism contract (see DESIGN.md):
// the paper's CTQO results are only reproducible if a fixed seed replays
// bit-for-bit, so the properties are enforced mechanically rather than by
// review. Every analyzer honours a "//lint:allow <name>" comment on the
// flagged line or the line above it.
package analyzers

import (
	"go/ast"
	"go/types"

	"ctqosim/internal/lint/analysis"
)

// All returns the full suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Wallclock, Seededrand, Maporder, Exhaustive, Hotpath, Effects}
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
