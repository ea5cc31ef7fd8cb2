package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hyperq/internal/lint/analysis"
)

// LeakPair reports acquire/release pairs left unbalanced on some path to a
// function exit.
//
// The gateway is full of resources whose lifetime is a strict pair: a pool
// slot reservation must be un-reserved when the dial fails (the PR 4 warm-up
// leak starved the pool for the rest of the process), a result stream must
// be closed or handed to an owner, a pipeline stage timer must be ended (it
// owns the stage's trace span, so this is spanend's check for stage spans), an exemplar trace pin must be unpinned or
// recorded for a later unpin, and a result-memory reservation must be
// released or attached to the batch that carries it through the pipeline.
// The analyzer walks the control-flow graph from each acquire and reports
// every return (or fall-off-the-end) reachable without a matching release,
// a deferred release, or an ownership transfer.
//
// Two pair shapes are understood:
//
//   - value pairs: the acquire yields the resource (a *conn, a ResultStream)
//     and the release consumes it — either a function taking the value as an
//     argument (release/handback) or a method on it (Close). The value
//     escaping the function (returned, stored into a struct or field, passed
//     to another call) transfers ownership and ends the obligation; an
//     `if err != nil` guard on the acquire's error return carries no
//     resource and is exempt.
//
//   - counter pairs: the acquire is a void or bool call (Pin,
//     acquireResultBytes, reserveSlot) balanced by a paired call. Paths are
//     satisfied by the release, a deferred release, or a handoff store — an
//     assignment whose right-hand side mentions an argument of the acquire,
//     recording enough state for someone else to release later (the exemplar
//     id stored for the next Unpin, the byte size stored into the in-flight
//     batch). A bool acquire consumed by an if condition incurs its
//     obligation only on the success branch.
//
// Test files are skipped: tests exercise lifecycles on purpose, including
// half-open ones.
var LeakPair = &analysis.Analyzer{
	Name: "leakpair",
	Doc:  "checks that paired acquire/release resources are balanced on every path",
	Run:  runLeakPair,
}

// leakValueSpec describes an acquire returning the resource value.
type leakValueSpec struct {
	pkg            string // package NAME declaring the acquire callee
	acquire        string
	releaseFuncs   []string // same-package functions taking the value as an argument
	releaseMethods []string // methods on the value
	what           string   // noun for diagnostics
}

// leakCounterSpec describes a void/bool acquire balanced by a paired call.
type leakCounterSpec struct {
	pkg     string
	acquire string
	release string
	what    string
}

// The pair registry matches callees by declaring-package NAME (not path) so
// analyzer fixtures can stand in tiny stub packages for the real ones —
// exactly like the other analyzers in this suite.
var (
	leakValueSpecs = []leakValueSpec{
		{pkg: "pool", acquire: "acquire", releaseFuncs: []string{"release", "handback", "handbackLocked"}, what: "pool connection"},
		{pkg: "pool", acquire: "dial", releaseFuncs: []string{"release", "handback", "handbackLocked"}, what: "dialed connection"},
		{pkg: "pool", acquire: "ExecStream", releaseMethods: []string{"Close"}, what: "result stream"},
		{pkg: "odbc", acquire: "ExecStream", releaseMethods: []string{"Close"}, what: "result stream"},
		{pkg: "odbc", acquire: "OpenStream", releaseMethods: []string{"Close"}, what: "result stream"},
		{pkg: "hyperq", acquire: "begin", releaseMethods: []string{"end", "endWith"}, what: "stage timer"},
	}
	leakCounterSpecs = []leakCounterSpec{
		{pkg: "pool", acquire: "reserveSlot", release: "unreserveSlot", what: "pool slot reservation"},
		{pkg: "hyperq", acquire: "acquireResultBytes", release: "releaseResultBytes", what: "result-memory reservation"},
		{pkg: "wstats", acquire: "Pin", release: "Unpin", what: "exemplar trace pin"},
		{pkg: "trace", acquire: "Pin", release: "Unpin", what: "trace ring pin"},
	}
)

func runLeakPair(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, fn := range functionsIn(file) {
			checkLeakPairsIn(pass, fn.body)
		}
	}
	return nil
}

func checkLeakPairsIn(pass *analysis.Pass, body *ast.BlockStmt) {
	vals, ctrs := findAcquires(pass, body)
	if len(vals) == 0 && len(ctrs) == 0 {
		return
	}
	g := analysis.New(body)
	for _, a := range vals {
		checkValueAcquire(pass, g, body, a)
	}
	for _, a := range ctrs {
		checkCounterAcquire(pass, g, body, a)
	}
}

// valueAcquire is one tracked resource binding.
type valueAcquire struct {
	spec   *leakValueSpec
	obj    types.Object // the variable bound to the resource
	node   ast.Node     // the binding statement/spec, anchoring the CFG walk
	call   *ast.CallExpr
	errObj types.Object // the error bound alongside, when the acquire returns (T, error)
}

// counterAcquire is one tracked void/bool acquire call.
type counterAcquire struct {
	spec    *leakCounterSpec
	call    *ast.CallExpr
	cond    ast.Expr // enclosing if condition when the acquire is consumed by one
	negated bool     // the call appears under ! inside cond
}

// findAcquires scans body (nested closures excluded — they are functions of
// their own) for registry acquires, keeping enough context to anchor each
// CFG walk.
func findAcquires(pass *analysis.Pass, body *ast.BlockStmt) ([]*valueAcquire, []*counterAcquire) {
	var vals []*valueAcquire
	var ctrs []*counterAcquire

	valueSpecFor := func(call *ast.CallExpr) *leakValueSpec {
		callee := analysis.CalleeFunc(pass.Info, call)
		if callee == nil {
			return nil
		}
		for i := range leakValueSpecs {
			s := &leakValueSpecs[i]
			if callee.Name() == s.acquire && analysis.FuncPkgName(callee) == s.pkg {
				return s
			}
		}
		return nil
	}
	counterSpecFor := func(call *ast.CallExpr) *leakCounterSpec {
		callee := analysis.CalleeFunc(pass.Info, call)
		if callee == nil {
			return nil
		}
		for i := range leakCounterSpecs {
			s := &leakCounterSpecs[i]
			if callee.Name() == s.acquire && analysis.FuncPkgName(callee) == s.pkg {
				return s
			}
		}
		return nil
	}
	objOf := func(id *ast.Ident) types.Object {
		if o := pass.Info.Defs[id]; o != nil {
			return o
		}
		return pass.Info.Uses[id]
	}
	// recordBinding tracks `v, err := acquire(...)` / `v := acquire(...)`.
	recordBinding := func(node ast.Node, lhs []ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		spec := valueSpecFor(call)
		if spec == nil {
			return
		}
		id, ok := lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := objOf(id)
		if obj == nil {
			return
		}
		a := &valueAcquire{spec: spec, obj: obj, node: node, call: call}
		if len(lhs) == 2 {
			if eid, ok := lhs[1].(*ast.Ident); ok && eid.Name != "_" {
				a.errObj = objOf(eid)
			}
		}
		vals = append(vals, a)
	}

	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		stack = append(stack, n)
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && len(st.Lhs) >= 1 && len(st.Lhs) <= 2 {
				recordBinding(st, st.Lhs, st.Rhs[0])
			}
		case *ast.ValueSpec:
			if len(st.Values) == 1 && len(st.Names) >= 1 && len(st.Names) <= 2 {
				lhs := make([]ast.Expr, len(st.Names))
				for i, nm := range st.Names {
					lhs[i] = nm
				}
				recordBinding(st, lhs, st.Values[0])
			}
		case *ast.CallExpr:
			spec := counterSpecFor(st)
			if spec == nil || underDefer(stack) {
				return true
			}
			a := &counterAcquire{spec: spec, call: st}
			a.cond, a.negated = enclosingCond(stack, st)
			ctrs = append(ctrs, a)
		}
		return true
	})
	return vals, ctrs
}

// enclosingCond reports the if condition consuming the call's boolean result
// (the call itself, possibly under ! or parens) and whether it is negated.
func enclosingCond(stack []ast.Node, call *ast.CallExpr) (ast.Expr, bool) {
	negated := false
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.UnaryExpr:
			if p.Op == token.NOT {
				negated = !negated
				continue
			}
			return nil, false
		case *ast.IfStmt:
			if exprContains(p.Cond, call) {
				return p.Cond, negated
			}
			return nil, false
		default:
			return nil, false
		}
	}
	return nil, false
}

func exprContains(e ast.Expr, target ast.Node) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// valueUseKind classifies what one identifier use does with a tracked value.
type valueUseKind int

const (
	vuEscape valueUseKind = iota
	vuBenign
	vuRelease
)

// checkValueAcquire walks every use of the bound resource and then asks the
// CFG which exits are reachable from the acquire without a release.
func checkValueAcquire(pass *analysis.Pass, g *analysis.CFG, body *ast.BlockStmt, a *valueAcquire) {
	var (
		releasePos []token.Pos
		deferred   bool
		escaped    bool
	)
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || (pass.Info.Uses[id] != a.obj && pass.Info.Defs[id] != a.obj) {
			return true
		}
		switch classifyValueUse(pass, a.spec, stack, id) {
		case vuRelease:
			releasePos = append(releasePos, id.Pos())
			if underDefer(stack) {
				deferred = true
			}
		case vuBenign:
		default:
			escaped = true
		}
		return true
	})
	if escaped || deferred {
		return
	}
	exempt := errGuardRanges(pass, body, a.errObj)
	for _, w := range g.LeakWitnesses(a.node, func(n ast.Node) bool {
		return anyWithin(releasePos, n)
	}) {
		if posInRanges(w, exempt) {
			continue
		}
		pass.Reportf(w,
			"%s from %s is not released on this path; call %s on every path or defer the release",
			a.spec.what, a.spec.acquire, strings.Join(append(a.spec.releaseFuncs, a.spec.releaseMethods...), "/"))
	}
}

// classifyValueUse decides whether the identifier at the top of the stack
// releases the tracked value, uses it benignly, or lets it escape.
func classifyValueUse(pass *analysis.Pass, spec *leakValueSpec, stack []ast.Node, id *ast.Ident) valueUseKind {
	if len(stack) < 2 {
		return vuEscape
	}
	parent := stack[len(stack)-2]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X != id {
			return vuBenign // id is the field/method name, not the receiver
		}
		if len(stack) >= 3 {
			if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == p {
				for _, m := range spec.releaseMethods {
					if p.Sel.Name == m {
						return vuRelease
					}
				}
				return vuBenign // some other method on the value
			}
		}
		// Not invoked: a field read (c.ex) is benign, a method value escapes.
		if _, isFunc := pass.Info.Uses[p.Sel].(*types.Func); isFunc {
			return vuEscape
		}
		return vuBenign
	case *ast.CallExpr:
		// The value passed as a bare argument: a registry release consumes
		// it, anything else takes ownership.
		if callee := analysis.CalleeFunc(pass.Info, p); callee != nil && analysis.FuncPkgName(callee) == spec.pkg {
			for _, f := range spec.releaseFuncs {
				if callee.Name() == f {
					return vuRelease
				}
			}
		}
		return vuEscape
	case *ast.BinaryExpr:
		return vuBenign // nil checks
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == id {
				return vuBenign // (re)binding target
			}
		}
		return vuEscape // aliased away on the RHS
	case *ast.ValueSpec:
		for _, nm := range p.Names {
			if nm == id {
				return vuBenign
			}
		}
		return vuEscape
	default:
		return vuEscape
	}
}

// checkCounterAcquire verifies a void/bool acquire is balanced — released,
// deferred, or handed off — on every path from its success point.
func checkCounterAcquire(pass *analysis.Pass, g *analysis.CFG, body *ast.BlockStmt, a *counterAcquire) {
	spec := a.spec
	argObjs := make(map[types.Object]bool)
	for _, arg := range a.call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := pass.Info.Uses[id]; o != nil {
					argObjs[o] = true
				}
			}
			return true
		})
	}
	isRelease := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if found {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok {
				if callee := analysis.CalleeFunc(pass.Info, call); callee != nil &&
					callee.Name() == spec.release && analysis.FuncPkgName(callee) == spec.pkg {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}
	// A deferred release anywhere in the function covers every path.
	deferred := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && isRelease(d) {
			deferred = true
		}
		return !deferred
	})
	if deferred {
		return
	}
	// handoff: an assignment whose RHS mentions an acquire argument records
	// the obligation for a later release (exemplar id kept for the next
	// Unpin, batch size stored into the in-flight item).
	handoff := func(n ast.Node) bool {
		if len(argObjs) == 0 {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return false
		}
		for _, r := range as.Rhs {
			mentions := false
			ast.Inspect(r, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && argObjs[pass.Info.Uses[id]] {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				return true
			}
		}
		return false
	}
	ok := func(n ast.Node) bool { return isRelease(n) || handoff(n) }

	var witnesses []token.Pos
	if a.cond != nil {
		// Bool acquire consumed by an if: the obligation exists only on the
		// success branch. The builder wires Succs[0] = then, Succs[1] =
		// else/join, so success is the else side when the call is negated.
		if b, i := g.FindNode(a.cond); b != nil && i == len(b.Nodes)-1 && len(b.Succs) == 2 {
			succ := b.Succs[0]
			if a.negated {
				succ = b.Succs[1]
			}
			witnesses = g.LeakWitnessesFrom(succ, 0, ok)
		} else {
			witnesses = g.LeakWitnesses(a.call, ok)
		}
	} else {
		witnesses = g.LeakWitnesses(a.call, ok)
	}
	for _, w := range witnesses {
		pass.Reportf(w,
			"%s from %s is unbalanced on this path; pair it with %s on every path, defer it, or store a handoff",
			spec.what, spec.acquire, spec.release)
	}
}

// errGuardRanges collects the body ranges of `if err != nil { ... }` guards
// on the acquire's error result: those paths carry no resource.
func errGuardRanges(pass *analysis.Pass, body *ast.BlockStmt, errObj types.Object) [][2]token.Pos {
	if errObj == nil {
		return nil
	}
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		be, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || be.Op != token.NEQ {
			return true
		}
		x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
		var side ast.Expr
		switch {
		case isNilIdent(y):
			side = x
		case isNilIdent(x):
			side = y
		default:
			return true
		}
		if id, ok := side.(*ast.Ident); ok && pass.Info.Uses[id] == errObj {
			out = append(out, [2]token.Pos{ifs.Body.Lbrace, ifs.Body.Rbrace})
		}
		return true
	})
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func posInRanges(p token.Pos, ranges [][2]token.Pos) bool {
	for _, r := range ranges {
		if p >= r[0] && p <= r[1] {
			return true
		}
	}
	return false
}
