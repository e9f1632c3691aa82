package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"ctqosim/internal/lint/analysis"
)

// hotpathDirective is the annotation demanding an allocation-free
// transitive call graph: "//lint:hotpath [allocs=N] [reason]" on a
// function's doc comment (that function) or a file's package doc (every
// function in the file). The optional allocs=N grants a budget of N
// static allocation sites; the default budget is zero.
const hotpathDirective = "//lint:hotpath"

// hotpathSpec is one parsed annotation.
type hotpathSpec struct {
	budget int
}

// parseHotpathDirective parses one comment line. ok reports whether the
// comment is a hotpath directive at all; err is non-nil when it is one
// but malformed (unknown key=value, or a non-numeric/negative budget).
func parseHotpathDirective(text string) (ok bool, budget int, err error) {
	rest, found := strings.CutPrefix(text, hotpathDirective)
	if !found {
		return false, 0, nil
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return false, 0, nil // e.g. //lint:hotpathX — a different word
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return true, 0, nil
	}
	first := fields[0]
	if k, v, isKV := strings.Cut(first, "="); isKV {
		if k != "allocs" {
			return true, 0, fmt.Errorf("unknown %s key %q (only allocs=N)", hotpathDirective, k)
		}
		n, convErr := strconv.Atoi(v)
		if convErr != nil || n < 0 {
			return true, 0, fmt.Errorf("%s allocs=%q: budget must be a non-negative integer", hotpathDirective, v)
		}
		return true, n, nil
	}
	return true, 0, nil // first field starts the free-form reason
}

// AllocsFact is the bottom-up allocation summary of a function: the
// heap-allocating constructs it may execute, including those reached
// transitively through same- and cross-package callees. A function with
// no fact is allocation-free as far as the static approximation can see.
// Sites carrying a "//lint:allow hotpath <reason>" suppression are
// removed at fact-construction time, so a cold branch annotated in a
// callee never taints its hot callers.
type AllocsFact struct {
	// Sites lists the earliest allocation sites (capped at maxSites),
	// sorted by position.
	Sites []Site
}

// AFact implements analysis.Fact.
func (*AllocsFact) AFact() {}

// String renders the summary for fixture fact expectations.
func (f *AllocsFact) String() string {
	whats := make([]string, len(f.Sites))
	for i, s := range f.Sites {
		whats[i] = s.What
	}
	return "allocs(" + strings.Join(whats, "; ") + ")"
}

// Hotpath computes an AllocsFact for every function of the package,
// exported for dependent packages, and enforces //lint:hotpath
// annotations against them: an annotated function's transitive call
// graph must be allocation-free, or within its allocs=N budget. Findings
// are reported at the annotated declaration and carry the call chain
// down to the allocating construct. Cold branches are excluded at the
// source with "//lint:allow hotpath <reason>" on the allocating line
// (see DESIGN.md §12 for the conventions).
//
// The detection is a deliberately escape-analysis-free approximation of
// the compiler: composite literals whose address escapes, make/new,
// slice and map literals, append (may grow), interface boxing of
// non-pointer values, capturing closures, method values, string
// concatenation and string<->[]byte conversions, go statements, defers
// inside loops, and calls to known-allocating stdlib functions (fmt,
// errors, strings builders, sort.Slice...). Dynamic calls — interface
// methods and func values — are invisible to the summary and form the
// contract's documented measurement boundary (DESIGN.md §12).
var Hotpath = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "require an allocation-free transitive call graph for " +
		"//lint:hotpath functions (budget adjustable with allocs=N), " +
		"reporting the chain to each allocating construct; " +
		"//lint:allow hotpath suppresses a site at its source",
	FactTypes: []analysis.Fact{new(AllocsFact)},
	Run:       runHotpath,
}

// stdlibAllocating lists GOROOT package-level functions known to
// allocate. GOROOT packages are not analyzed (no facts), so without this
// list a hot path calling fmt.Sprintf would look clean.
var stdlibAllocating = map[string]map[string]bool{
	"fmt": {
		"Sprint": true, "Sprintf": true, "Sprintln": true,
		"Print": true, "Printf": true, "Println": true,
		"Fprint": true, "Fprintf": true, "Fprintln": true,
		"Errorf": true, "Sscan": true, "Sscanf": true, "Sscanln": true,
		"Appendf": true, "Append": true, "Appendln": true,
	},
	"errors": {"New": true, "Join": true},
	"strings": {
		"Join": true, "Repeat": true, "Replace": true, "ReplaceAll": true,
		"Split": true, "SplitN": true, "SplitAfter": true, "Fields": true,
		"FieldsFunc": true, "Map": true, "ToUpper": true, "ToLower": true,
		"Title": true, "TrimFunc": true, "Clone": true, "Concat": true,
	},
	"strconv": {
		"Itoa": true, "FormatInt": true, "FormatUint": true,
		"FormatFloat": true, "Quote": true, "AppendQuote": true,
	},
	"sort": {"Slice": true, "SliceStable": true, "SliceIsSorted": true},
}

func runHotpath(pass *analysis.Pass) (any, error) {
	if pass.Pkg == nil {
		return nil, nil
	}
	a := allocs{newEngine(pass, func(fn *types.Func) []Site {
		var fact AllocsFact
		pass.ImportObjectFact(fn, &fact)
		return fact.Sites
	})}
	a.fixpoint(a.scan)
	for _, sum := range a.funcs {
		if sites := a.render(sum); len(sites) > 0 {
			pass.ExportObjectFact(sum.fn, &AllocsFact{Sites: sites})
		}
	}
	for _, f := range pass.Files {
		filewide, fileOK := hotpathFromDoc(pass, f.Doc)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			spec, declOK := hotpathFromDoc(pass, fd.Doc)
			if !declOK {
				if !fileOK {
					continue
				}
				spec = filewide
			}
			if fd.Body == nil {
				pass.Reportf(fd.Name.Pos(),
					"//lint:hotpath on %s, which has no body: the contract needs a call graph to check", fd.Name.Name)
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			// The budget counts every site of the function's summary; the
			// fact keeps only the first maxSites of them to report.
			n := len(a.byObj[fn].sites)
			var fact AllocsFact
			if n <= spec.budget || !pass.ImportObjectFact(fn, &fact) {
				continue
			}
			for _, site := range fact.Sites {
				msg := fmt.Sprintf("//lint:hotpath function %s allocates: %s (%s:%d)",
					fd.Name.Name, site.What, site.File, site.Line)
				if spec.budget > 0 {
					msg = fmt.Sprintf("%s [budget allocs=%d exceeded: %d sites]",
						msg, spec.budget, n)
				}
				pass.Report(analysis.Diagnostic{
					Pos:     fd.Name.Pos(),
					Message: msg,
					Chain:   site.Chain,
				})
			}
		}
	}
	return nil, nil
}

// hotpathFromDoc scans a doc comment for a hotpath directive, reporting
// malformed ones as diagnostics. ok is true when a well-formed directive
// was found.
func hotpathFromDoc(pass *analysis.Pass, doc *ast.CommentGroup) (hotpathSpec, bool) {
	if doc == nil {
		return hotpathSpec{}, false
	}
	for _, c := range doc.List {
		isDirective, budget, err := parseHotpathDirective(c.Text)
		if !isDirective {
			continue
		}
		if err != nil {
			pass.Reportf(c.Pos(), "malformed hotpath directive: %v", err)
			continue
		}
		return hotpathSpec{budget: budget}, true
	}
	return hotpathSpec{}, false
}

// allocs scans function bodies for allocation sites on the summary
// engine.
type allocs struct{ *engine }

// scan walks one function body for direct allocation sites and calls to
// allocating callees, reporting growth. FuncLit bodies are not descended
// into: a closure's internal allocations belong to whoever calls it (a
// dynamic call this analysis cannot resolve); the closure value itself is
// the creating function's site when it captures.
func (a allocs) scan(sum *summary) bool {
	grew := false
	add := func(pos token.Pos, what string) {
		if a.add(sum, pos, what) {
			grew = true
		}
	}
	info := a.pass.TypesInfo
	ast.Inspect(sum.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if closureCaptures(info, n, sum.decl) {
				add(n.Pos(), "closure captures variables")
			}
			return false // do not scan the body: it runs when called, not here
		case *ast.GoStmt:
			add(n.Pos(), "go statement")
		case *ast.ForStmt, *ast.RangeStmt:
			// A defer in a loop heap-allocates a frame per iteration that
			// only runs at return (open-coded defers need straight-line
			// code). One inside a literal runs per call of the literal.
			ast.Inspect(n, func(m ast.Node) bool {
				if d, ok := m.(*ast.DeferStmt); ok {
					add(d.Pos(), "defer in loop")
				}
				_, lit := m.(*ast.FuncLit)
				return !lit
			})
		case *ast.CallExpr:
			if a.scanCall(sum, n, add) {
				grew = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "composite literal escapes")
				}
			}
		case *ast.CompositeLit:
			if what, ok := compositeAllocs(info, n); ok {
				add(n.Pos(), what)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstantString(info, n) {
				add(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) || n.Tok == token.DEFINE {
					break
				}
				if boxes(typeOf(info, n.Rhs[i]), typeOf(info, lhs)) {
					add(n.Rhs[i].Pos(), "boxed into interface")
				}
			}
		case *ast.ReturnStmt:
			if sig, ok := sum.fn.Type().(*types.Signature); ok {
				for i, res := range n.Results {
					if i >= sig.Results().Len() {
						break
					}
					if boxes(typeOf(info, res), sig.Results().At(i).Type()) {
						add(res.Pos(), "boxed into interface")
					}
				}
			}
		case *ast.SelectorExpr:
			// A method value (x.M used as a value, not called) allocates a
			// bound-method closure.
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if !calledOrCallArg(sum.decl, n) {
					add(n.Pos(), "method value")
				}
			}
		}
		return true
	})
	return grew
}

// scanCall classifies one call expression: builtins, conversions, static
// callees with summaries, known-allocating stdlib functions, and
// interface boxing of its arguments. It reports growth through callee
// summaries; direct sites go through add.
func (a allocs) scanCall(sum *summary, call *ast.CallExpr, add func(token.Pos, string)) bool {
	info := a.pass.TypesInfo

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		target := tv.Type
		argT := typeOf(info, call.Args[0])
		if isStringByteConversion(target, argT) {
			add(call.Pos(), "string conversion")
		} else if boxes(argT, target) {
			add(call.Pos(), "boxed into interface")
		}
		return false
	}

	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				what := "make"
				if len(call.Args) > 0 {
					switch typeOf(info, call.Args[0]).Underlying().(type) {
					case *types.Slice:
						what = "make slice"
					case *types.Map:
						what = "make map"
					case *types.Chan:
						what = "make chan"
					}
				}
				add(call.Pos(), what)
			case "new":
				add(call.Pos(), "new")
			case "append":
				add(call.Pos(), "append may grow")
			}
			return false
		}
	}

	// Static callees: the stdlib denylist (GOROOT packages export no
	// facts), else same-package summaries or imported facts.
	grew := false
	if callee, _ := calleeFunc(info, call); callee != nil {
		if pkg := callee.Pkg(); pkg != nil && stdlibAllocating[pkg.Path()][callee.Name()] {
			add(call.Pos(), "allocating stdlib call "+pkg.Name()+"."+callee.Name())
		} else {
			grew = a.addCall(sum, call.Pos(), callee, "call to")
		}
	}

	// Interface boxing of arguments, for any call with a known signature
	// (static or not: boxing is a property of the call site).
	if sig, ok := typeOf(info, call.Fun).(*types.Signature); ok && call.Ellipsis == token.NoPos {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if params.Len() > 0 {
					if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
						pt = sl.Elem()
					}
				}
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if boxes(typeOf(info, arg), pt) {
				add(arg.Pos(), "boxed into interface")
			}
		}
	}
	return grew
}

// compositeAllocs classifies a composite literal as heap-allocating:
// slice and map literals always allocate backing storage. Struct and
// array literals are values — they allocate only when their address is
// taken (the walk's UnaryExpr case) or when boxed into an interface (the
// boxing checks).
func compositeAllocs(info *types.Info, lit *ast.CompositeLit) (string, bool) {
	t := typeOf(info, lit)
	if t == nil {
		return "", false
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		if len(lit.Elts) > 0 {
			return "slice literal", true
		}
	case *types.Map:
		return "map literal", true
	}
	return "", false
}

// boxes reports whether assigning a value of type from to a location of
// type to converts a concrete non-pointer value into an interface — the
// allocation the runtime calls convT. Pointer-shaped values (pointers,
// channels, maps, funcs, unsafe pointers) box without allocating.
func boxes(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	switch u := from.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.UntypedNil, types.UnsafePointer:
			return false
		}
		return true
	}
	return true
}

// isStringByteConversion reports a string <-> []byte/[]rune conversion,
// which copies into fresh storage.
func isStringByteConversion(target, arg types.Type) bool {
	if target == nil || arg == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
			e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(target) && isByteSlice(arg)) || (isByteSlice(target) && isStr(arg))
}

// isNonConstantString reports a string-typed expression the compiler
// cannot fold at compile time.
func isNonConstantString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// closureCaptures reports whether the literal references a variable
// declared in the enclosing function but outside the literal itself.
// Package-level objects don't count: a closure over only those is a
// static function value, allocation-free.
func closureCaptures(info *types.Info, lit *ast.FuncLit, encl *ast.FuncDecl) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // the literal's own params/locals
		}
		if v.Pos() >= encl.Pos() && v.Pos() <= encl.End() {
			captures = true
		}
		return !captures
	})
	return captures
}

// calledOrCallArg reports whether sel appears as the function of a call
// (x.M(...) — no method-value allocation) within the declaration.
func calledOrCallArg(decl *ast.FuncDecl, sel *ast.SelectorExpr) bool {
	called := false
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && unparen(call.Fun) == sel {
			called = true
		}
		return !called
	})
	return called
}
