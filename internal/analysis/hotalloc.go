package analysis

// The hotalloc module pass: the simulator's hot loop must not
// allocate. TestSteadySteppingAllocs enforces this at runtime for one
// configuration; this pass enforces it at compile time for every
// function reachable from the hot roots:
//
//   - (*Machine).drive — the event loop, on whichever goroutine holds
//     the turn,
//   - (*Proc).do — the thread-side fast path,
//   - every lock implementation's Lock/Unlock (structural match:
//     methods named Lock and Unlock on the same receiver, taking one
//     *sim.Proc and returning nothing),
//   - the traffic engine's worker and arrive paths,
//   - every observer callback: methods that implement sim.LockObserver,
//     sim.MemObserver, sim.FaultInjector or sim.CrashInjector
//     (structural match through go/types). The loop reaches them only
//     through interface values, which the call graph leaves unresolved,
//     so each implementation anchors its own region: the invariant
//     checker, race auditor, fault injector, lock stats and flight
//     recorder run once per event,
//   - any function whose doc comment carries //flexlint:hotpath.
//
// Within reach, the pass flags the Go constructs that allocate: the
// make/new builtins, append (which grows), composite literals taken by
// address or of slice/map type, closures that capture, go statements,
// map writes, non-constant string concatenation, boxing a concrete
// value into an interface, and calls into the fmt/errors/strings/
// strconv/sort/bytes stdlib families (all allocate internally).
//
// Three constructs are exempt by design:
//   - spin-condition closures (SpinOn/SpinOnMax arguments): they are
//     the costed op API's required shape and are passed directly to a
//     call, so escape analysis keeps them on the stack;
//   - arguments of panic(...): an assertion failure terminates the
//     run, so its formatting cost is unreachable on any healthy path;
//   - functions marked //flexlint:coldpath: one-time setup (thread
//     spawn, lazy per-thread queue-node registration, an observer's
//     table growth on the first sight of an id), once-per-window work,
//     and rare verdict formatting — code a hot path calls at most once
//     per thread, id, window or reported violation, not per operation.
//
// Bounded amortized growth that remains (e.g. the traffic engine
// growing its worker table up to maxWorkers, or the trace ring
// reaching capacity) is suppressed with an explicit
// //flexlint:allow hotalloc <reason>.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotStdlib names stdlib packages whose exported API allocates on
// essentially every call.
var hotStdlib = map[string]bool{
	"fmt": true, "errors": true, "strings": true,
	"strconv": true, "sort": true, "bytes": true,
}

func runHotAlloc(mp *ModulePass) {
	prog := mp.Prog

	var roots []*FuncNode
	for _, n := range prog.Nodes {
		if isHotRoot(n) {
			roots = append(roots, n)
		}
	}

	// Follow synchronous flow only: a go statement hands the work to
	// another goroutine outside the stepping loop's critical path, and
	// a coldpath callee runs once per thread, not per operation.
	reached := prog.Reach(roots, func(e Edge) bool {
		return e.Kind != EdgeGo && !e.Callee.ColdPath
	})

	for _, n := range prog.Nodes {
		root, ok := reached[n]
		if !ok || n.ColdPath {
			continue
		}
		via := ""
		if root != n.Name {
			via = " (reachable from " + root + ")"
		}
		checkHotFunc(mp, n, via)
	}
}

// isHotRoot reports whether the node anchors the no-allocation region.
func isHotRoot(n *FuncNode) bool {
	if n.HotPath {
		return true
	}
	if n.Decl == nil || n.Decl.Recv == nil {
		return false
	}
	switch {
	case inSimPackage(n):
		return n.Decl.Name.Name == "drive" || n.Decl.Name.Name == "do"
	case strings.HasSuffix(n.Pkg.Path, "/internal/traffic") || n.Pkg.Path == "internal/traffic":
		return n.Decl.Name.Name == "worker" || n.Decl.Name.Name == "arrive"
	}
	return isLockImplMethod(n) || isObserverMethod(n)
}

// observerIfaces are the internal/sim callback interfaces the event
// loop invokes through interface values.
var observerIfaces = []string{"LockObserver", "MemObserver", "FaultInjector", "CrashInjector"}

// isObserverMethod reports whether n is a method of one of the
// observerIfaces on a receiver type that implements that interface.
func isObserverMethod(n *FuncNode) bool {
	if n.Obj == nil {
		return false
	}
	recv := n.Obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	sim := simPackage(n.Pkg.Types)
	if sim == nil {
		return false
	}
	t := recv.Type()
	if _, isPtr := t.(*types.Pointer); !isPtr {
		t = types.NewPointer(t) // the pointer's method set includes value methods
	}
	for _, name := range observerIfaces {
		tn, ok := sim.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok || !types.Implements(t, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == n.Obj.Name() {
				return true
			}
		}
	}
	return false
}

// simPackage returns internal/sim as seen from pkg: pkg itself, or its
// direct import (an observer implementation names sim's types in its
// method signatures, so it always imports the package directly).
func simPackage(pkg *types.Package) *types.Package {
	if isSimPath(pkg.Path()) {
		return pkg
	}
	for _, imp := range pkg.Imports() {
		if isSimPath(imp.Path()) {
			return imp
		}
	}
	return nil
}

// isLockImplMethod reports whether n is Lock or Unlock on a receiver
// type that has both, each with signature func(*sim.Proc) and no
// results — the structural shape of a lock implementation.
func isLockImplMethod(n *FuncNode) bool {
	name := n.Decl.Name.Name
	if name != "Lock" && name != "Unlock" || n.Obj == nil {
		return false
	}
	if !isProcMethodShape(n.Obj) {
		return false
	}
	recv := n.Obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	other := "Unlock"
	if name == "Unlock" {
		other = "Lock"
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Name() == other && isProcMethodShape(m) {
			return true
		}
	}
	return false
}

// isProcMethodShape reports whether f has signature func(*sim.Proc)
// with no results.
func isProcMethodShape(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 0 || sig.Params().Len() != 1 {
		return false
	}
	pt := sig.Params().At(0).Type()
	if _, ok := pt.(*types.Pointer); !ok {
		return false
	}
	return isSimNamed(pt, "Proc")
}

// checkHotFunc flags allocation sites in n's own statements.
func checkHotFunc(mp *ModulePass, n *FuncNode, via string) {
	info := n.Pkg.Info
	cold := panicRanges(n, info)
	walkOwn(n, func(node ast.Node) {
		if cold.contains(node.Pos()) {
			return
		}
		switch x := node.(type) {
		case *ast.CallExpr:
			checkHotCall(mp, info, x, via)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					mp.Reportf(x.Pos(), "heap allocation on a hot path%s: composite literal escapes via &", via)
				}
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[x]
			if !ok || tv.Type == nil {
				return
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				mp.Reportf(x.Pos(), "heap allocation on a hot path%s: slice literal", via)
			case *types.Map:
				mp.Reportf(x.Pos(), "heap allocation on a hot path%s: map literal", via)
			}
		case *ast.FuncLit:
			// Spin-condition closures are the costed spin API's shape;
			// passed directly to SpinOn they do not escape.
			if lit := mp.Prog.LitNode(x); lit != nil && !lit.SpinCond && closureCaptures(lit) {
				mp.Reportf(x.Pos(), "heap allocation on a hot path%s: closure captures variables", via)
			}
		case *ast.GoStmt:
			mp.Reportf(x.Pos(), "goroutine launch on a hot path%s: go allocates a stack and defeats determinism", via)
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				tv, ok := info.Types[idx.X]
				if !ok || tv.Type == nil {
					continue
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					mp.Reportf(idx.Pos(), "map write on a hot path%s: may rehash and allocate", via)
				}
			}
		case *ast.BinaryExpr:
			if x.Op != token.ADD {
				return
			}
			tv, ok := info.Types[x]
			if !ok || tv.Type == nil || tv.Value != nil {
				return
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				mp.Reportf(x.Pos(), "string concatenation on a hot path%s: allocates the result", via)
			}
		}
	})
}

// checkHotCall flags allocating calls: make/new/append builtins and
// calls into allocating stdlib packages.
func checkHotCall(mp *ModulePass, info *types.Info, call *ast.CallExpr, via string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun]; ok {
			if b, ok := obj.(*types.Builtin); ok {
				switch b.Name() {
				case "make":
					mp.Reportf(call.Pos(), "heap allocation on a hot path%s: make", via)
				case "new":
					mp.Reportf(call.Pos(), "heap allocation on a hot path%s: new", via)
				case "append":
					mp.Reportf(call.Pos(), "append on a hot path%s: grows the backing array", via)
				}
			}
		}
	case *ast.SelectorExpr:
		ident, ok := ast.Unparen(fun.X).(*ast.Ident)
		if !ok {
			break
		}
		pkgName, ok := info.Uses[ident].(*types.PkgName)
		if !ok {
			break
		}
		if hotStdlib[pkgName.Imported().Path()] {
			mp.Reportf(call.Pos(), "call to %s.%s on a hot path%s: allocates internally",
				pkgName.Imported().Path(), fun.Sel.Name, via)
		}
	}
	checkBoxing(mp, info, call, via)
}

// checkBoxing flags arguments where a concrete non-pointer value is
// passed into an interface-typed parameter slot — the conversion
// copies the value to the heap. Pointers and interface values fit the
// interface word without allocating; constants fold away in the cases
// the simulator cares about (trace kinds are ints behind a concrete
// parameter) and are skipped to keep the signal clean.
func checkBoxing(mp *ModulePass, info *types.Info, call *ast.CallExpr, via string) {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil || at.Value != nil || at.IsNil() {
			continue
		}
		switch at.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer:
			continue
		}
		mp.Reportf(arg.Pos(), "heap allocation on a hot path%s: value boxed into interface argument", via)
	}
}

// posRanges is a set of source extents; contains is linear, which is
// fine — functions have at most a handful of panic sites.
type posRanges [][2]token.Pos

func (rs posRanges) contains(p token.Pos) bool {
	for _, r := range rs {
		if r[0] <= p && p <= r[1] {
			return true
		}
	}
	return false
}

// panicRanges collects the extents of panic(...) calls in n's own
// statements. Everything inside — the message formatting, its boxing
// into panic's any parameter — runs only when the run is already dead,
// so it is not hot.
func panicRanges(n *FuncNode, info *types.Info) posRanges {
	var rs posRanges
	walkOwn(n, func(node ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return
		}
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			rs = append(rs, [2]token.Pos{call.Pos(), call.End()})
		}
	})
	return rs
}

// closureCaptures reports whether the literal references a variable
// declared outside its own body (excluding package-level and universe
// names — those don't force a heap-allocated closure context).
func closureCaptures(lit *FuncNode) bool {
	body := lit.Lit.Body
	if body == nil {
		return false
	}
	captures := false
	ast.Inspect(lit.Lit, func(node ast.Node) bool {
		if captures {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := lit.Pkg.Info.Uses[id].(*types.Var)
		if !ok || v.Parent() == nil {
			return true
		}
		if isPackageLevel(v) || v.Parent() == types.Universe {
			return true
		}
		// Declared outside the literal's extent → captured.
		if v.Pos() < lit.Lit.Pos() || v.Pos() > lit.Lit.End() {
			captures = true
			return false
		}
		return true
	})
	return captures
}
