package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"ctqosim/internal/lint/analysis"
)

// orderedSinks are call names that emit bytes (or records) in call order:
// reaching one from inside a map range makes the output depend on Go's
// randomized iteration order.
var orderedSinks = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteAll": true, "WriteFile": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Encode": true, "Marshal": true, "MarshalIndent": true,
	"Observe": true, "Record": true,
}

// floatEqualityPackages are where a float result feeds the paper's
// replayable numbers: the sim-time packages, the HDR/percentile pipeline
// and the analytical model.
var floatEqualityPackages = append([]string{
	"ctqosim/internal/metrics",
	"ctqosim/internal/analytic",
}, SimTimePackages...)

// Maporder flags map iteration whose body has order-dependent effects:
// appending to a slice that is never sorted afterwards, writing
// CSV/JSON/SVG output, concatenating strings, accumulating floats (+=
// and friends, or x = x + ...: float arithmetic does not associate, so
// even a sum into a scalar depends on the order) or calling Merge.
// These make reports, metrics and Perfetto exports differ between
// identical runs. In floatEqualityPackages it also flags == and !=
// between two non-constant floats, which is rounding- and
// order-sensitive after accumulation; comparing with a constant (a
// v == 0 sentinel) tests an exact stored value and stays legal.
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map loops that append to unsorted slices, " +
		"emit ordered output, accumulate floats or merge shards, and " +
		"float equality between non-constant operands where numbers " +
		"must replay; sort the keys first",
	Run: runMaporder,
}

func runMaporder(pass *analysis.Pass) (any, error) {
	floatEq := pass.Pkg != nil && inPackages(pass.Pkg.Path(), floatEqualityPackages)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch s := n.(type) {
			case *ast.BinaryExpr:
				if floatEq && (s.Op == token.EQL || s.Op == token.NEQ) &&
					isVariableFloat(pass.TypesInfo, s.X) && isVariableFloat(pass.TypesInfo, s.Y) {
					pass.Reportf(s.OpPos,
						"%s between non-constant floats is rounding-sensitive: compare with an epsilon or on integer representations", s.Op)
				}
				return true
			case *ast.BlockStmt:
				list = s.List
			case *ast.CaseClause:
				list = s.Body
			case *ast.CommClause:
				list = s.Body
			default:
				return true
			}
			for i, stmt := range list {
				rs := asRange(stmt)
				if rs == nil || !isMapType(pass.TypesInfo, rs.X) {
					continue
				}
				checkMapRange(pass, rs, list[i+1:])
			}
			return true
		})
	}
	return nil, nil
}

// asRange unwraps labels down to a range statement.
func asRange(stmt ast.Stmt) *ast.RangeStmt {
	for {
		switch s := stmt.(type) {
		case *ast.LabeledStmt:
			stmt = s.Stmt
		case *ast.RangeStmt:
			return s
		default:
			return nil
		}
	}
}

// isMapType reports whether the expression's type is a map.
func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange inspects one map-range body; rest is the statement list
// following the loop in its enclosing block, consulted to accept the
// canonical collect-keys-then-sort pattern.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	info := pass.TypesInfo
	var appendTargets []string
	reported := false
	report := func(format string, args ...any) {
		if !reported {
			pass.Reportf(rs.For, format, args...)
			reported = true
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			name := calleeName(n)
			if orderedSinks[name] {
				report("map iteration feeds ordered output via %s: iterate sorted keys instead", name)
			}
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && name == "Merge" {
				if m, ok := info.Selections[sel]; ok && m.Kind() == types.MethodVal {
					report("map iteration merges via Merge in hash order: merge shards in index order instead")
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				// An assignment operation has exactly one operand each side.
				if n.Tok == token.ADD_ASSIGN && isStringExpr(info, n.Lhs[0]) {
					report("string built up in map iteration order: iterate sorted keys instead")
				} else if isFloatType(typeOf(info, n.Lhs[0])) {
					report("float accumulated in map iteration order: iterate sorted keys instead")
				}
			case token.ASSIGN, token.DEFINE:
				if n.Tok == token.ASSIGN && len(n.Lhs) == 1 && len(n.Rhs) == 1 &&
					isFloatType(typeOf(info, n.Lhs[0])) && foldsVar(info, n.Rhs[0], selectedVar(info, n.Lhs[0])) {
					report("float accumulated in map iteration order: iterate sorted keys instead")
				}
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) || !isAppendCall(info, rhs) {
						continue
					}
					lhs := unparen(n.Lhs[i])
					// Appending into a map-keyed bucket (m[k] = append(m[k], v))
					// is per-key and order-insensitive.
					if idx, ok := lhs.(*ast.IndexExpr); ok && isMapType(info, idx.X) {
						continue
					}
					appendTargets = append(appendTargets, types.ExprString(lhs))
				}
			}
		}
		return !reported
	})
	if reported {
		return
	}
	for _, target := range appendTargets {
		if !sortedAfter(info, rest, target) {
			report("map iteration appends to %s in nondeterministic order and it is never sorted afterwards", target)
			return
		}
	}
}

// calleeName returns the bare name of a call's function.
func calleeName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isStringExpr reports whether e has string type.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isFloatType reports whether t's underlying type is float32/float64.
func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// isVariableFloat reports whether e is a float expression that is not
// a compile-time constant.
func isVariableFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value == nil && isFloatType(tv.Type)
}

// foldsVar reports whether e is an arithmetic chain with v as one
// operand: the x = x + delta accumulation shape.
func foldsVar(info *types.Info, e ast.Expr, v *types.Var) bool {
	b, ok := unparen(e).(*ast.BinaryExpr)
	if !ok || v == nil {
		return false
	}
	switch b.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	for _, side := range []ast.Expr{b.X, b.Y} {
		if selectedVar(info, side) == v || foldsVar(info, side, v) {
			return true
		}
	}
	return false
}

// selectedVar resolves an identifier or field selector to its variable.
func selectedVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}

// sortedAfter reports whether a sort/slices call mentioning target (by
// expression text) appears in the statements following the loop.
func sortedAfter(info *types.Info, rest []ast.Stmt, target string) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := info.Uses[pkgID].(*types.PkgName)
			if !ok {
				return true
			}
			if p := pn.Imported().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if types.ExprString(unparen(arg)) == target {
					found = true
					break
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
