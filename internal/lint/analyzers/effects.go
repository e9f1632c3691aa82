package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"ctqosim/internal/lint/analysis"
)

// sharedPtrMarker annotates a pointer-typed struct field whose pointee is
// shared across Runner workers (core.Config's Mix, Kernel, Consolidation,
// LogFlush, GCPause): runs may read through it freely, but a write
// through it would leak from one run into every concurrent run sharing
// the Config, silently skewing tail statistics.
const sharedPtrMarker = "//lint:sharedptr"

// noCaptureWriteMarker annotates a func-typed struct field whose closures
// execute on worker goroutines (core.Config's Tweak and Script): the
// closure may mutate its own parameters (per-run state handed to it) but
// must not write variables captured from the enclosing scope, including
// package-level variables, and must reach no effect.
const noCaptureWriteMarker = "//lint:nocapturewrite"

// pureDirective marks a function as a purity root: "//lint:pure [reason]"
// on a function's doc comment demands that the function — and everything
// it reaches through static calls — writes no shared state, performs no
// I/O, and touches no nondeterministic source. The scenario generator
// (scenario.Generate) and assertion evaluator (scenario.Evaluate) carry
// it; //lint:nocapturewrite closures are implicit roots.
const pureDirective = "//lint:pure"

// SharedPtrFact marks a struct field (a *types.Var) as shared-read-only:
// declared with a //lint:sharedptr comment. Dependent packages import it
// to recognize the field through their own selector expressions.
type SharedPtrFact struct{}

// AFact implements analysis.Fact.
func (*SharedPtrFact) AFact() {}

// NoCaptureWriteFact marks a func-typed struct field (a *types.Var)
// declared with a //lint:nocapturewrite comment.
type NoCaptureWriteFact struct{}

// AFact implements analysis.Fact.
func (*NoCaptureWriteFact) AFact() {}

// EffectsFact is the bottom-up effects summary of a function, with
// function literals counted in the function that creates them (creating
// the closure may lead to the effect). Sites carrying a "//lint:allow
// effects <reason>" suppression are removed at fact-construction time,
// so the allowance covers every root that reaches them.
type EffectsFact struct {
	// Sites lists the earliest effect sites (capped at maxSites), sorted
	// by position: package-variable writes, channel operations, go
	// statements, I/O, wall-clock reads, global or crypto randomness, and
	// calls to callees with effects, each with its chain.
	Sites []Site
	// Mutates lists, ascending, the input positions the function may write
	// through, directly or via callees. Position 0 is the receiver when
	// the function is a method; parameters follow. "Write through" means
	// a store that lands in memory reachable from the argument — through a
	// pointer, slice or map — so passing a shared pointer at such a
	// position mutates shared state.
	Mutates []int
}

// AFact implements analysis.Fact.
func (*EffectsFact) AFact() {}

// String renders the summary for fixture fact expectations.
func (f *EffectsFact) String() string {
	whats := make([]string, len(f.Sites))
	for i, s := range f.Sites {
		whats[i] = s.What
	}
	out := "effects(" + strings.Join(whats, "; ") + ")"
	if len(f.Mutates) > 0 {
		out += fmt.Sprintf(" mutates%v", f.Mutates)
	}
	return out
}

// Effects enforces the worker-pool determinism contract (DESIGN.md §8–9)
// on EffectsFact summaries, so an effect or a write several packages
// below the offending call is still caught:
//
//   - no code writes through a //lint:sharedptr field, directly, through
//     a local alias, or by passing it to a callee that writes that input;
//   - a //lint:nocapturewrite closure writes no captured variable;
//   - a //lint:pure function or //lint:nocapturewrite closure reaches no
//     effect. Direct effects are flagged at their own position,
//     transitive ones at the call, with the chain down to the effect.
//
// Writes through a root's own parameters are legal: a Tweak closure
// exists to mutate the per-run SystemSpec handed to it.
var Effects = &analysis.Analyzer{
	Name: "effects",
	Doc: "forbid writes through //lint:sharedptr Config fields and " +
		"captured-state writes in //lint:nocapturewrite closures, and " +
		"require //lint:pure functions and //lint:nocapturewrite closures " +
		"to reach no shared-state write, I/O or nondeterministic source, " +
		"reporting the call chain to each effect",
	FactTypes: []analysis.Fact{
		new(SharedPtrFact), new(NoCaptureWriteFact), new(EffectsFact),
	},
	Run: runEffects,
}

// ioPackages are stdlib packages whose functions and methods count as
// I/O (or process-state mutation) wherever they are called from.
var ioPackages = map[string]bool{
	"os":       true,
	"os/exec":  true,
	"net":      true,
	"net/http": true,
	"log":      true,
	"syscall":  true,
}

// fmtPrinting are the fmt functions that write to process stdout.
// Fprint* variants are flagged by their os.Stdout/os.Stderr argument
// instead (writing into a caller-supplied bytes.Buffer is pure).
var fmtPrinting = map[string]bool{"Print": true, "Printf": true, "Println": true}

// randExempt are the math/rand constructors that wrap an explicit seeded
// source — the determinism contract's approved pattern. Everything else
// at package level draws from the shared global source.
var randExempt = map[string]bool{"New": true, "NewSource": true}

func runEffects(pass *analysis.Pass) (any, error) {
	if pass.Pkg == nil {
		return nil, nil
	}
	exportMarkedFields(pass)
	x := effects{newEngine(pass, func(fn *types.Func) []Site {
		var fact EffectsFact
		pass.ImportObjectFact(fn, &fact)
		return fact.Sites
	})}
	x.fixpoint(func(sum *summary) bool { return x.scan(sum, sum.decl.Body) })
	for _, sum := range x.funcs {
		fact := &EffectsFact{Sites: x.render(sum), Mutates: sum.mutates}
		if len(fact.Sites) > 0 || len(fact.Mutates) > 0 {
			pass.ExportObjectFact(sum.fn, fact)
		}
		x.checkSharedWrites(sum.decl.Body)
	}
	x.checkRoots()
	return nil, nil
}

// effects scans function bodies for effect sites and written inputs on
// the summary engine, and runs the checks.
type effects struct{ *engine }

// markedComment reports whether a comment group contains the marker as a
// whole line.
func markedComment(marker string, groups ...*ast.CommentGroup) bool {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if c.Text == marker {
				return true
			}
		}
	}
	return false
}

// exportMarkedFields finds //lint:sharedptr and //lint:nocapturewrite
// struct fields declared in this package and exports their facts.
func exportMarkedFields(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				shared := markedComment(sharedPtrMarker, field.Doc, field.Comment)
				noCapture := markedComment(noCaptureWriteMarker, field.Doc, field.Comment)
				if !shared && !noCapture {
					continue
				}
				for _, name := range field.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if shared {
						if _, ok := obj.Type().Underlying().(*types.Pointer); !ok {
							pass.Reportf(name.Pos(),
								"//lint:sharedptr on non-pointer field %s: the marker guards writes through a shared pointer", name.Name)
							continue
						}
						pass.ExportObjectFact(obj, new(SharedPtrFact))
					}
					if noCapture {
						if _, ok := obj.Type().Underlying().(*types.Signature); !ok {
							pass.Reportf(name.Pos(),
								"//lint:nocapturewrite on non-func field %s: the marker guards worker-run closures", name.Name)
							continue
						}
						pass.ExportObjectFact(obj, new(NoCaptureWriteFact))
					}
				}
			}
			return true
		})
	}
}

// scan adds the effect sites and written inputs of body (function
// literals included) to sum and reports whether it grew.
func (x effects) scan(sum *summary, body ast.Node) bool {
	info := x.pass.TypesInfo
	grew := false
	add := func(pos token.Pos, what string) {
		if x.add(sum, pos, what) {
			grew = true
		}
	}
	mutate := func(obj types.Object) {
		if i := inputIndex(sum.fn, obj); i >= 0 && !slices.Contains(sum.mutates, i) {
			sum.mutates = append(sum.mutates, i)
			sort.Ints(sum.mutates)
			grew = true
		}
	}
	write := func(lhs ast.Expr) {
		obj, shared := storeRoot(info, lhs)
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			add(lhs.Pos(), "writes package variable "+v.Name())
		}
		if shared {
			mutate(obj)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if !defines(info, n.Tok, lhs) {
					write(lhs)
				}
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.SendStmt:
			add(n.Arrow, "channel send")
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				add(n.OpPos, "channel receive")
			case token.AND:
				// Taking the address of memory reachable from an input
				// lets the pointer escape to writers the summary cannot
				// see; count it as a potential mutation.
				if obj, reaches := argReach(info, n); reaches {
					mutate(obj)
				}
			}
		case *ast.GoStmt:
			add(n.Go, "spawns goroutine")
		case *ast.CallExpr:
			callee, recv := calleeFunc(info, n)
			if callee == nil {
				return true
			}
			if what, ok := callEffect(info, n, callee); ok {
				add(n.Pos(), what)
			}
			if x.addCall(sum, n.Pos(), callee, "calls") {
				grew = true
			}
			for _, p := range x.mutated(callee) {
				if e := callArgAt(callee, recv, n, p); e != nil {
					if obj, reaches := argReach(info, e); reaches {
						mutate(obj)
					}
				}
			}
		}
		return true
	})
	return grew
}

// callEffect classifies a call to callee as a direct effect: stdlib
// I/O, wall-clock reads, or global/cryptographic randomness.
func callEffect(info *types.Info, call *ast.CallExpr, callee *types.Func) (string, bool) {
	if callee.Pkg() == nil {
		return "", false
	}
	pkg := callee.Pkg().Path()
	sig, _ := callee.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch {
	case ioPackages[pkg]:
		return "I/O call " + funcName(callee), true
	case pkg == "fmt" && !isMethod:
		if fmtPrinting[callee.Name()] {
			return "I/O call " + funcName(callee), true
		}
		if strings.HasPrefix(callee.Name(), "Fprint") && len(call.Args) > 0 {
			if obj, _ := storeRoot(info, unparen(call.Args[0])); obj != nil {
				if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Pkg().Path() == "os" &&
					(v.Name() == "Stdout" || v.Name() == "Stderr") {
					return "I/O call " + funcName(callee) + " to os." + v.Name(), true
				}
			}
		}
	case pkg == "time" && !isMethod && wallclockFuncs[callee.Name()]:
		return "wall-clock call time." + callee.Name(), true
	case (pkg == "math/rand" || pkg == "math/rand/v2") && !isMethod && !randExempt[callee.Name()]:
		return "global rand call rand." + callee.Name(), true
	case pkg == "crypto/rand":
		return "nondeterministic call " + funcName(callee), true
	}
	return "", false
}

// mutated returns the input positions a callee writes through: the
// converging summary of a same-package callee, or the imported fact.
func (x effects) mutated(fn *types.Func) []int {
	if sum, ok := x.byObj[fn]; ok {
		return sum.mutates
	}
	var fact EffectsFact
	x.pass.ImportObjectFact(fn, &fact)
	return fact.Mutates
}

// inputIndex returns obj's input position in fn (the receiver first,
// then the parameters), or -1.
func inputIndex(fn *types.Func, obj types.Object) int {
	if fn == nil || obj == nil {
		return -1
	}
	sig := fn.Type().(*types.Signature)
	i := 0
	if recv := sig.Recv(); recv != nil {
		if recv == obj {
			return 0
		}
		i++
	}
	for j := 0; j < sig.Params().Len(); j++ {
		if sig.Params().At(j) == obj {
			return i + j
		}
	}
	return -1
}

// defines reports whether lhs, in an assignment with token tok, declares
// a fresh variable rather than storing into an existing one.
func defines(info *types.Info, tok token.Token, lhs ast.Expr) bool {
	id, ok := unparen(lhs).(*ast.Ident)
	return ok && tok == token.DEFINE && info.Defs[id] != nil
}

// storeRoot walks an lvalue (or argument) chain to its base object and
// reports whether the chain passes through a pointer, slice or map — i.e.
// whether a write at the end of the chain lands in memory shared with
// whoever supplied the base value, rather than in a local copy.
func storeRoot(info *types.Info, e ast.Expr) (types.Object, bool) {
	shared := false
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			shared = true
			e = x.X
		case *ast.SelectorExpr:
			if base, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[base].(*types.PkgName); isPkg {
					// Qualified package-level variable: the selected
					// object is the root.
					return info.Uses[x.Sel], shared
				}
			}
			if isRefUnderlying(typeOf(info, x.X)) {
				shared = true // implicit deref: field of a pointer
			}
			e = x.X
		case *ast.IndexExpr:
			if isRefUnderlying(typeOf(info, x.X)) {
				shared = true // slice and map elements share backing
			}
			e = x.X
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			return obj, shared
		default:
			return nil, shared
		}
	}
}

// isRefUnderlying reports whether t's underlying type shares memory with
// copies of the value: pointer, slice or map.
func isRefUnderlying(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// argReach resolves an argument expression to its base object and whether
// a callee writing through the passed value reaches memory owned by that
// base: the chain itself passes through a reference, or the passed value
// is reference-typed (a pointer, slice or map hands the callee shared
// memory directly).
func argReach(info *types.Info, e ast.Expr) (types.Object, bool) {
	e = unparen(e)
	reaches := false
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = unparen(u.X)
		reaches = true // the callee gets the address itself
	}
	if isRefUnderlying(typeOf(info, e)) {
		reaches = true
	}
	obj, shared := storeRoot(info, e)
	return obj, reaches || shared
}

// callArgAt maps a callee fact position back to the call-site expression
// occupying it, or nil when the call shape does not supply one (e.g. a
// variadic position with no argument).
func callArgAt(callee *types.Func, recv ast.Expr, call *ast.CallExpr, pos int) ast.Expr {
	if recv != nil {
		if pos == 0 {
			return recv
		}
		pos--
	}
	if pos < len(call.Args) {
		return call.Args[pos]
	}
	// A variadic final parameter covers every trailing argument; point at
	// the last one if present.
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Variadic() && len(call.Args) > 0 {
		return call.Args[len(call.Args)-1]
	}
	return nil
}

// writtenArgs calls f with each argument of call that the callee writes
// through (address-of stripped), and the argument expression itself.
func (x effects) writtenArgs(call *ast.CallExpr, f func(callee *types.Func, arg, e ast.Expr)) {
	callee, recv := calleeFunc(x.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	for _, pos := range x.mutated(callee) {
		e := callArgAt(callee, recv, call, pos)
		if e == nil {
			continue
		}
		arg := unparen(e)
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = unparen(u.X)
		}
		f(callee, arg, e)
	}
}

// sharedFieldIn walks an expression's selection chain and returns the
// name of the first //lint:sharedptr field it passes through, or "".
// skipWhole excludes the case where the expression IS the field selection
// itself (a store to the field — replacing the pointer — is legal; only
// writes through it are not).
func (x effects) sharedFieldIn(e ast.Expr, skipWhole bool) string {
	first := true
	for {
		switch s := e.(type) {
		case *ast.ParenExpr:
			e = s.X
		case *ast.StarExpr:
			e = s.X
			first = false
		case *ast.IndexExpr:
			e = s.X
			first = false
		case *ast.SelectorExpr:
			if sel, ok := x.pass.TypesInfo.Selections[s]; ok && sel.Kind() == types.FieldVal {
				if obj, ok := sel.Obj().(*types.Var); ok {
					var fact SharedPtrFact
					if x.pass.ImportObjectFact(obj, &fact) && !(first && skipWhole) {
						return obj.Name()
					}
				}
			}
			e = s.X
			first = false
		default:
			return ""
		}
	}
}

// checkSharedWrites flags every way a function body writes through a
// shared pointer field: direct stores, stores through a local alias, and
// passing the field (or an alias) to a callee that writes that position.
func (x effects) checkSharedWrites(body *ast.BlockStmt) {
	aliases := x.collectAliases(body)
	aliasField := func(e ast.Expr) (string, bool) {
		obj, _ := storeRoot(x.pass.TypesInfo, unparen(e))
		field, ok := aliases[obj]
		return field, ok && obj != nil
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				x.flagStore(lhs, n.Tok, aliasField)
			}
		case *ast.IncDecStmt:
			x.flagStore(n.X, token.ASSIGN, aliasField)
		case *ast.CallExpr:
			x.writtenArgs(n, func(callee *types.Func, arg, e ast.Expr) {
				if field := x.sharedFieldIn(arg, false); field != "" {
					x.pass.Reportf(e.Pos(),
						"shared pointer field %s passed to %s, which may write through it: runs must only read //lint:sharedptr state",
						field, callee.Name())
				} else if field, ok := aliasField(arg); ok {
					x.pass.Reportf(e.Pos(),
						"alias of shared pointer field %s passed to %s, which may write through it: runs must only read //lint:sharedptr state",
						field, callee.Name())
				}
			})
		}
		return true
	})
}

// flagStore reports a store whose target chain passes through a shared
// field or a local alias of one. A define of a fresh variable is not a
// store into shared memory (it is how aliases arise; collectAliases
// handles those).
func (x effects) flagStore(lhs ast.Expr, tok token.Token, aliasField func(ast.Expr) (string, bool)) {
	if defines(x.pass.TypesInfo, tok, lhs) {
		return
	}
	if field := x.sharedFieldIn(lhs, true); field != "" {
		x.pass.Reportf(lhs.Pos(),
			"write through shared pointer field %s: //lint:sharedptr state is shared across Runner workers and must only be read at run time",
			field)
		return
	}
	obj, shared := storeRoot(x.pass.TypesInfo, lhs)
	if !shared {
		return // rebinding the local itself, not writing the pointee
	}
	if field, ok := aliasField(unparen(lhs)); ok && obj != nil {
		x.pass.Reportf(lhs.Pos(),
			"write through %s, an alias of shared pointer field %s: //lint:sharedptr state must only be read at run time",
			obj.Name(), field)
	}
}

// collectAliases finds local variables whose every assignment is rooted
// at a shared pointer field (m := cfg.Mix). A variable that is ever
// assigned anything else is ambiguous and dropped — flow-insensitive
// analysis cannot order the assignments, so it accepts the false
// negative rather than flag the common fresh-value-fallback pattern.
func (x effects) collectAliases(body *ast.BlockStmt) map[types.Object]string {
	aliases := make(map[types.Object]string)
	ambiguous := make(map[types.Object]bool)
	record := func(lhs, rhs ast.Expr) {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := x.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = x.pass.TypesInfo.Uses[id]
		}
		if _, ok := obj.(*types.Var); !ok {
			return
		}
		if field := x.sharedFieldIn(unparen(rhs), false); field != "" {
			if _, dup := aliases[obj]; !dup {
				aliases[obj] = field
			}
		} else {
			ambiguous[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) && (n.Tok == token.DEFINE || n.Tok == token.ASSIGN) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	for obj := range ambiguous {
		delete(aliases, obj)
	}
	return aliases
}

// checkRoots finds the package's roots — //lint:pure declarations and
// function literals assigned to //lint:nocapturewrite fields, in
// assignments or composite literals, inside function bodies or at
// package level — and checks each.
func (x effects) checkRoots() {
	closure := func(field *ast.Ident, value ast.Expr) {
		lit, ok := unparen(value).(*ast.FuncLit)
		if !ok {
			return
		}
		obj, ok := x.pass.TypesInfo.Uses[field].(*types.Var)
		if !ok || !x.pass.ImportObjectFact(obj, new(NoCaptureWriteFact)) {
			return
		}
		x.checkRoot(field.Name+" closure (//lint:nocapturewrite)", lit.Body, x.checkCaptures(lit))
	}
	for _, f := range x.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasPureDirective(fd.Doc) {
				continue
			}
			if fd.Body == nil {
				x.pass.Reportf(fd.Name.Pos(),
					"//lint:pure on %s, which has no body: the contract needs a call graph to check", fd.Name.Name)
				continue
			}
			x.checkRoot("//lint:pure function "+fd.Name.Name, fd.Body, nil)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok && i < len(n.Rhs) {
						closure(sel.Sel, n.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							closure(key, kv.Value)
						}
					}
				}
			}
			return true
		})
	}
}

// hasPureDirective scans a doc comment for the pure directive.
func hasPureDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == pureDirective || strings.HasPrefix(c.Text, pureDirective+" ") ||
			strings.HasPrefix(c.Text, pureDirective+"\t") {
			return true
		}
	}
	return false
}

// checkRoot reports every effect site of a root body, skipping the
// positions in done (captured writes already reported): direct effects
// at their own position, calls to callees with effects at the call, with
// the chain from the root down to the effect.
func (x effects) checkRoot(label string, body *ast.BlockStmt, done map[token.Pos]bool) {
	root := newSummary(nil, nil)
	x.scan(root, body)
	for _, s := range sorted(root) {
		if done[s.pos] {
			continue
		}
		site := x.renderOne(root, s)
		if len(site.Chain) == 0 {
			x.pass.Reportf(s.pos, "%s must stay pure: %s", label, s.what)
			continue
		}
		// The chain's last step names the effect: "fn: what (file:line)".
		depth := len(site.Chain)
		last := strings.TrimSuffix(site.Chain[depth-1], ")")
		x.pass.Report(analysis.Diagnostic{
			Pos:     s.pos,
			Message: fmt.Sprintf("%s reaches impure %s, %d call%s deep)", label, last, depth, plural(depth)),
			Chain:   append([]string{renderSite(label, site.What, site.File, site.Line)}, site.Chain...),
		})
	}
}

// plural returns "s" for n != 1.
func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// checkCaptures flags writes to captured variables inside a closure
// destined for a //lint:nocapturewrite field, and returns the positions
// of the captured writes it reported. The closure's own parameters and
// locals (anything declared inside the literal) are fair game;
// everything declared outside — enclosing locals and package-level
// variables alike — is shared with other runs or the submitting
// goroutine.
func (x effects) checkCaptures(lit *ast.FuncLit) map[token.Pos]bool {
	info := x.pass.TypesInfo
	declaredOutside := func(e ast.Expr) (types.Object, bool) {
		obj, _ := storeRoot(info, e)
		v, ok := obj.(*types.Var)
		if !ok || (v.Pos() >= lit.Pos() && v.Pos() <= lit.End()) {
			return nil, false
		}
		return v, true
	}
	flagged := make(map[token.Pos]bool)
	flag := func(e ast.Expr) {
		if obj, ok := declaredOutside(e); ok {
			x.pass.Reportf(e.Pos(),
				"//lint:nocapturewrite closure writes captured variable %s: worker-run closures must only mutate their own parameters",
				obj.Name())
			flagged[e.Pos()] = true
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if !defines(info, n.Tok, lhs) {
					flag(lhs)
				}
			}
		case *ast.IncDecStmt:
			flag(n.X)
		case *ast.CallExpr:
			x.writtenArgs(n, func(callee *types.Func, arg, e ast.Expr) {
				if obj, ok := declaredOutside(arg); ok {
					x.pass.Reportf(e.Pos(),
						"//lint:nocapturewrite closure passes captured variable %s to %s, which may write through it",
						obj.Name(), callee.Name())
				}
			})
		}
		return true
	})
	return flagged
}
