package analyzers

import (
	"go/ast"
	"strings"

	"ctqosim/internal/lint/analysis"
)

// SimTimePackages are the import-path prefixes where time flows from the
// discrete-event simulator, never from the host clock. internal/live (the
// real-network harness) and internal/span's wall-clock collector path are
// deliberately absent: they measure real machines.
var SimTimePackages = []string{
	"ctqosim/internal/des",
	"ctqosim/internal/cpu",
	"ctqosim/internal/simnet",
	"ctqosim/internal/server",
	"ctqosim/internal/core",
	"ctqosim/internal/burst",
	"ctqosim/internal/workload",
	"ctqosim/internal/scenario",
	"ctqosim/internal/fault",
	"ctqosim/internal/ntier",
}

// wallclockFuncs are the package-level time functions that read or wait
// on the host clock. Conversions and constants (time.Duration,
// time.Millisecond, ...) remain free to use.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Wallclock forbids the runtime's nondeterminism inside simulated-time
// packages: host-clock reads (a single stray time.Now in a hot path
// silently breaks seed-for-seed replay of the CTQO scenarios) and
// select statements with two or more channel cases, between which the
// runtime picks with an unseeded random draw. Sim-time code drains
// channels in an explicit order: sequential receives, or a single-case
// select with a default for a non-blocking poll.
var Wallclock = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/Since/Sleep/After/Tick/NewTimer/NewTicker and " +
		"multi-case selects in sim-time packages; simulated components " +
		"must read the DES clock and drain channels in a fixed order",
	Run: runWallclock,
}

// inPackages reports whether pkgPath is one of the prefixes or lies
// below one.
func inPackages(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

func runWallclock(pass *analysis.Pass) (any, error) {
	if pass.Pkg == nil || !inPackages(pass.Pkg.Path(), SimTimePackages) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				fn := funcUse(pass.TypesInfo, n)
				if fn != nil && fn.Pkg().Path() == "time" && wallclockFuncs[fn.Name()] {
					pass.Reportf(n.Pos(),
						"wall-clock time.%s in sim-time package %s: read the simulator clock instead",
						fn.Name(), pass.Pkg.Path())
				}
			case *ast.SelectStmt:
				comm := 0
				for _, stmt := range n.Body.List {
					if cc, ok := stmt.(*ast.CommClause); ok && cc.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					pass.Reportf(n.Pos(),
						"select with %d channel cases in sim-time package %s: runtime select order is unseeded randomness; drain channels in an explicit order",
						comm, pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil, nil
}
