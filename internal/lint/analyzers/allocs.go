package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"ctqosim/internal/lint/analysis"
)

// maxAllocSites bounds a function's exported summary: the hot-path audit
// only needs to know a function allocates and where it starts, not every
// site. The earliest sites (by position) are kept.
const maxAllocSites = 4

// maxChainDepth bounds the rendered call chain of one site.
const maxChainDepth = 8

// AllocSite is one heap-allocating construct a function may execute,
// directly or through a callee.
type AllocSite struct {
	// What names the construct ("make map", "append may grow", "call to
	// pkg.Func", ...).
	What string
	// File (base name) and Line locate the construct.
	File string
	Line int
	// Chain, present on call sites, traces through intermediate callees
	// down to the underlying construct; each entry is a pre-rendered
	// "func: what (file:line)" step.
	Chain []string
}

// AllocsFact is the bottom-up allocation summary of a function: the
// heap-allocating constructs it may execute, including those reached
// transitively through same- and cross-package callees. A function with
// no fact is allocation-free as far as the static approximation can see.
// Sites carrying a "//lint:allow allocs <reason>" suppression are removed
// at fact-construction time, so a cold branch annotated in a callee never
// taints its hot callers. The hotpath analyzer declares the same fact
// type and consumes these summaries.
type AllocsFact struct {
	// Sites lists the earliest allocation sites (capped at maxAllocSites),
	// sorted by position.
	Sites []AllocSite
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

// Allocs computes AllocsFact summaries for every function of the package
// and exports them for dependent packages (and for the hotpath analyzer,
// which shares the fact type). It reports no diagnostics itself: the
// facts are the product, and hotpath turns them into findings at
// //lint:hotpath annotations.
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
var Allocs = &analysis.Analyzer{
	Name: "allocs",
	Doc: "compute bottom-up per-function allocation summaries " +
		"(AllocsFact) and propagate them cross-package for the hotpath " +
		"analyzer; //lint:allow allocs suppresses a site at its source",
	FactTypes: []analysis.Fact{new(AllocsFact)},
	Run:       runAllocs,
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

func runAllocs(pass *analysis.Pass) (any, error) {
	if pass.Pkg == nil {
		return nil, nil
	}
	s := &allocsState{
		pass:    pass,
		byObj:   make(map[*types.Func]*allocSummary),
		allowed: allowedLinesFor(pass, "allocs"),
	}
	s.collect()
	s.fixpoint()
	s.export()
	return nil, nil
}

// allocSite is the in-progress form of an AllocSite.
type allocSite struct {
	pos  token.Pos
	what string
	// callee is non-nil for call sites into the same package (chain
	// resolved at export time, after the fixpoint converges).
	callee *types.Func
	// chain is pre-rendered for call sites into already-analyzed imported
	// packages.
	chain []string
}

// allocSummary is one function's in-progress allocation summary.
type allocSummary struct {
	fn    *types.Func
	decl  *ast.FuncDecl
	sites map[token.Pos]*allocSite
}

type allocsState struct {
	pass  *analysis.Pass
	funcs []*allocSummary
	byObj map[*types.Func]*allocSummary
	// allowed maps file -> line numbers carrying a //lint:allow directive
	// naming "allocs" (keyed to the directive comment's position, so
	// consumption can be reported to the driver's stale-suppression
	// audit); a site on such a line or the one below it is suppressed at
	// fact-construction time.
	allowed map[string]map[int]token.Pos
}

// suppressedAt reports whether a site at pos carries an allocs allow on
// its own line or the line above, notifying the driver's audit hook of
// the consumed directive.
func (s *allocsState) suppressedAt(pos token.Pos) bool {
	return consumeAllow(s.pass, s.allowed, pos, "allocs")
}

func (s *allocsState) collect() {
	for _, f := range s.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := s.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := &allocSummary{fn: fn, decl: fd, sites: make(map[token.Pos]*allocSite)}
			s.funcs = append(s.funcs, sum)
			s.byObj[fn] = sum
		}
	}
}

// fixpoint scans every function body repeatedly until no summary grows,
// so same-package (mutually) recursive call chains converge.
func (s *allocsState) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, sum := range s.funcs {
			if s.scan(sum) {
				changed = true
			}
		}
	}
}

// add records a site if it is new and not suppressed; reports growth.
func (s *allocsState) add(sum *allocSummary, pos token.Pos, site *allocSite) bool {
	if _, dup := sum.sites[pos]; dup || s.suppressedAt(pos) {
		return false
	}
	site.pos = pos
	sum.sites[pos] = site
	return true
}

// scan walks one function body for direct allocation sites and calls to
// allocating callees. FuncLit bodies are not descended into: a closure's
// internal allocations belong to whoever calls it (a dynamic call this
// analysis cannot resolve); the closure value itself is the creating
// function's site when it captures.
func (s *allocsState) scan(sum *allocSummary) bool {
	grew := false
	info := s.pass.TypesInfo
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if closureCaptures(info, n, sum.decl) {
				if s.add(sum, n.Pos(), &allocSite{what: "closure captures variables"}) {
					grew = true
				}
			}
			return false // do not scan the body: it runs when called, not here
		case *ast.GoStmt:
			if s.add(sum, n.Pos(), &allocSite{what: "go statement"}) {
				grew = true
			}
		case *ast.ForStmt, *ast.RangeStmt:
			// A defer in a loop heap-allocates a frame per iteration that
			// only runs at return (open-coded defers need straight-line
			// code). One inside a literal runs per call of the literal.
			ast.Inspect(n, func(m ast.Node) bool {
				if d, ok := m.(*ast.DeferStmt); ok && s.add(sum, d.Pos(), &allocSite{what: "defer in loop"}) {
					grew = true
				}
				_, lit := m.(*ast.FuncLit)
				return !lit
			})
		case *ast.CallExpr:
			if s.scanCall(sum, n) {
				grew = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					if s.add(sum, n.Pos(), &allocSite{what: "composite literal escapes"}) {
						grew = true
					}
				}
			}
		case *ast.CompositeLit:
			if what, ok := s.compositeAllocs(n); ok {
				if s.add(sum, n.Pos(), &allocSite{what: what}) {
					grew = true
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstantString(info, n) {
				if s.add(sum, n.Pos(), &allocSite{what: "string concatenation"}) {
					grew = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) || n.Tok == token.DEFINE {
					break
				}
				if boxes(typeOf(info, n.Rhs[i]), typeOf(info, lhs)) {
					if s.add(sum, n.Rhs[i].Pos(), &allocSite{what: "boxed into interface"}) {
						grew = true
					}
				}
			}
		case *ast.ReturnStmt:
			if sig, ok := sum.fn.Type().(*types.Signature); ok {
				for i, res := range n.Results {
					if i >= sig.Results().Len() {
						break
					}
					if boxes(typeOf(info, res), sig.Results().At(i).Type()) {
						if s.add(sum, res.Pos(), &allocSite{what: "boxed into interface"}) {
							grew = true
						}
					}
				}
			}
		case *ast.SelectorExpr:
			// A method value (x.M used as a value, not called) allocates a
			// bound-method closure.
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if !calledOrCallArg(sum.decl, n) {
					if s.add(sum, n.Pos(), &allocSite{what: "method value"}) {
						grew = true
					}
				}
			}
		}
		return true
	}
	ast.Inspect(sum.decl.Body, walk)
	return grew
}

// scanCall classifies one call expression: builtins, conversions, static
// callees with summaries, known-allocating stdlib functions, and
// interface boxing of its arguments.
func (s *allocsState) scanCall(sum *allocSummary, call *ast.CallExpr) bool {
	grew := false
	info := s.pass.TypesInfo

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		target := tv.Type
		argT := typeOf(info, call.Args[0])
		if isStringByteConversion(target, argT) {
			if s.add(sum, call.Pos(), &allocSite{what: "string conversion"}) {
				grew = true
			}
		} else if boxes(argT, target) {
			if s.add(sum, call.Pos(), &allocSite{what: "boxed into interface"}) {
				grew = true
			}
		}
		return grew
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
				if s.add(sum, call.Pos(), &allocSite{what: what}) {
					grew = true
				}
			case "new":
				if s.add(sum, call.Pos(), &allocSite{what: "new"}) {
					grew = true
				}
			case "append":
				if s.add(sum, call.Pos(), &allocSite{what: "append may grow"}) {
					grew = true
				}
			}
			return grew
		}
	}

	// Static callees: same-package summaries (still converging), imported
	// facts, or the stdlib denylist.
	if callee, _ := calleeFunc(info, call); callee != nil {
		if local, ok := s.byObj[callee]; ok {
			if len(local.sites) > 0 && callee != sum.fn {
				if s.add(sum, call.Pos(), &allocSite{
					what:   "call to " + qualFuncName(callee),
					callee: callee,
				}) {
					grew = true
				}
			}
		} else {
			var fact AllocsFact
			if s.pass.ImportObjectFact(callee, &fact) && len(fact.Sites) > 0 {
				first := fact.Sites[0]
				chain := append([]string{renderSite(qualFuncName(callee), first.What, first.File, first.Line)}, first.Chain...)
				if s.add(sum, call.Pos(), &allocSite{
					what:  "call to " + qualFuncName(callee),
					chain: chain,
				}) {
					grew = true
				}
			} else if pkg := callee.Pkg(); pkg != nil && stdlibAllocating[pkg.Path()][callee.Name()] {
				if s.add(sum, call.Pos(), &allocSite{
					what: "allocating stdlib call " + pkg.Name() + "." + callee.Name(),
				}) {
					grew = true
				}
			}
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
				if s.add(sum, arg.Pos(), &allocSite{what: "boxed into interface"}) {
					grew = true
				}
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
func (s *allocsState) compositeAllocs(lit *ast.CompositeLit) (string, bool) {
	t := typeOf(s.pass.TypesInfo, lit)
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

// qualFuncName renders pkg.Func or pkg.Type.Method.
func qualFuncName(fn *types.Func) string {
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
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// renderSite formats one chain step.
func renderSite(fn, what, file string, line int) string {
	return fmt.Sprintf("%s: %s (%s:%d)", fn, what, file, line)
}

// export sorts, caps and renders each summary into an AllocsFact.
// Same-package call chains are resolved here, after the fixpoint, so the
// chain reflects the final summaries.
func (s *allocsState) export() {
	for _, sum := range s.funcs {
		if len(sum.sites) == 0 {
			continue
		}
		ordered := make([]*allocSite, 0, len(sum.sites))
		for _, site := range sum.sites {
			ordered = append(ordered, site)
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].pos < ordered[j].pos })
		if len(ordered) > maxAllocSites {
			ordered = ordered[:maxAllocSites]
		}
		fact := &AllocsFact{Sites: make([]AllocSite, 0, len(ordered))}
		for _, site := range ordered {
			p := s.pass.Fset.Position(site.pos)
			out := AllocSite{
				What:  site.what,
				File:  filepath.Base(p.Filename),
				Line:  p.Line,
				Chain: site.chain,
			}
			if site.callee != nil {
				out.Chain = s.chainFor(site.callee, map[*types.Func]bool{sum.fn: true})
			}
			fact.Sites = append(fact.Sites, out)
		}
		s.pass.ExportObjectFact(sum.fn, fact)
	}
}

// chainFor renders the call chain starting at a same-package callee,
// following first sites through further same-package calls, with a
// visited set guarding recursion and maxChainDepth bounding length.
func (s *allocsState) chainFor(fn *types.Func, visited map[*types.Func]bool) []string {
	var chain []string
	for fn != nil && len(chain) < maxChainDepth && !visited[fn] {
		visited[fn] = true
		sum, ok := s.byObj[fn]
		if !ok || len(sum.sites) == 0 {
			break
		}
		var first *allocSite
		for _, site := range sum.sites {
			if first == nil || site.pos < first.pos {
				first = site
			}
		}
		p := s.pass.Fset.Position(first.pos)
		chain = append(chain, renderSite(qualFuncName(fn), first.what, filepath.Base(p.Filename), p.Line))
		if first.callee != nil {
			fn = first.callee
			continue
		}
		chain = append(chain, first.chain...)
		break
	}
	if len(chain) > maxChainDepth {
		chain = chain[:maxChainDepth]
	}
	return chain
}
