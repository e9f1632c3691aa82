package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"ctqosim/internal/lint/analysis"
)

// EnumFact is exported on the *types.TypeName of every named basic type
// that has two or more declared constants in its own package — the
// repo's enum idiom (ntier.NX, trace.Direction, core.Tier, ...). Members
// holds the declared constant names grouped by value, so a switch need
// only mention one alias per value.
type EnumFact struct {
	// Members maps each distinct constant value (its exact string form)
	// to the names declaring it, sorted. Map iteration is never exposed:
	// consumers sort the missing-value name lists before reporting.
	Members map[string][]string
	// Exported maps a value to true when at least one of its names is
	// exported; cross-package switches are only held to exported values.
	Exported map[string]bool
}

// AFact implements analysis.Fact.
func (*EnumFact) AFact() {}

// Exhaustive flags switch statements over a declared enum type that do
// not mention every declared constant value. A default clause does NOT
// exempt the switch: the determinism contract (DESIGN.md §8) is that
// adding an enum member — a new event kind, tier, span kind — must fail
// the lint run at every switch that silently routes it to a fallback,
// because a silent fall-through is exactly how a new experiment knob
// produces subtly wrong statistics instead of an error. Suppress
// deliberate fallbacks with //lint:allow exhaustive.
//
// Only enums declared in analyzed packages participate (the fact is the
// only source of enum-ness), so switches over stdlib types like
// go/token.Token are never checked. Switches in a different package than
// the enum are only held to the enum's exported values. A switch with
// any non-constant case expression is skipped — it is doing something
// other than enumerating.
var Exhaustive = &analysis.Analyzer{
	Name: "exhaustive",
	Doc: "require switches over declared enum types (named basic types " +
		"with >=2 constants in their package) to mention every declared " +
		"constant value; a default clause does not exempt the switch",
	FactTypes: []analysis.Fact{new(EnumFact)},
	Run:       runExhaustive,
}

func runExhaustive(pass *analysis.Pass) (any, error) {
	if pass.Pkg == nil {
		return nil, nil
	}
	exportEnumFacts(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil, nil
}

// exportEnumFacts scans the package scope for named basic types with two
// or more same-package constants and exports an EnumFact on each.
func exportEnumFacts(pass *analysis.Pass) {
	scope := pass.Pkg.Scope()
	type enum struct {
		tn       *types.TypeName
		members  map[string][]string
		exported map[string]bool
	}
	enums := make(map[*types.TypeName]*enum)
	names := scope.Names() // sorted, so member collection is deterministic
	for _, name := range names {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok {
			continue
		}
		tn := named.Obj()
		if tn.Pkg() != pass.Pkg {
			continue
		}
		if _, ok := named.Underlying().(*types.Basic); !ok {
			continue
		}
		e := enums[tn]
		if e == nil {
			e = &enum{
				tn:       tn,
				members:  make(map[string][]string),
				exported: make(map[string]bool),
			}
			enums[tn] = e
		}
		val := c.Val().ExactString()
		e.members[val] = append(e.members[val], c.Name())
		if c.Exported() {
			e.exported[val] = true
		}
	}
	for _, e := range enums {
		total := 0
		for _, names := range e.members {
			total += len(names)
		}
		if total < 2 {
			continue
		}
		pass.ExportObjectFact(e.tn, &EnumFact{
			Members:  e.members,
			Exported: e.exported,
		})
	}
}

// checkSwitch verifies one tagged switch against its enum fact, if the
// tag's type has one.
func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.TypesInfo.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return
	}
	tn := named.Obj()
	var fact EnumFact
	if !pass.ImportObjectFact(tn, &fact) {
		return
	}
	samePkg := tn.Pkg() == pass.Pkg

	covered := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			ctv, ok := pass.TypesInfo.Types[e]
			if !ok || ctv.Value == nil {
				return // non-constant case: not an enumeration switch
			}
			covered[ctv.Value.ExactString()] = true
		}
	}

	vals := make([]string, 0, len(fact.Members))
	for val := range fact.Members {
		vals = append(vals, val)
	}
	sort.Strings(vals)
	var missing []string
	for _, val := range vals {
		if covered[val] {
			continue
		}
		if !samePkg && !fact.Exported[val] {
			continue
		}
		names := fact.Members[val]
		// Name the value by its first declared name (sorted for
		// determinism), preferring an exported one for cross-package
		// readability.
		sorted := append([]string(nil), names...)
		sort.Strings(sorted)
		label := sorted[0]
		for _, n := range sorted {
			if ast.IsExported(n) {
				label = n
				break
			}
		}
		missing = append(missing, label)
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Pos(),
		"switch over %s is missing cases for %s: enum switches must name every member so new members fail lint instead of silently falling through",
		tn.Name(), strings.Join(missing, ", "))
}
