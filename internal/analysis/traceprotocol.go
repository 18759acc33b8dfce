package analysis

// The traceprotocol module pass: every path through a lock's acquire
// must emit exactly one acquire-class trace event (sim.TraceAcquire)
// and every path through its release exactly one release-class event
// (sim.TraceRelease) before returning. The verdict layer derives
// happens-before edges and handover accounting from these events; a
// path that emits zero breaks ordering reconstruction silently, and a
// path that emits two double-counts a handover.
//
// Roots are found structurally: methods named Lock/Unlock whose
// receiver type has both, each with signature func(*sim.Proc) and no
// results. Each function summarizes to a saturating interval per
// class — [lo,hi] trace events emitted, capped at 2 — computed on the
// statement walker this pass shares with lockpair (flow.go), over
// interval states: branches union their intervals, loop back edges
// must emit zero in both classes (a spin retry must not re-emit),
// deferred emissions land on every subsequent exit, and panic/os.Exit
// paths don't count as exits.
// Helper summaries compose across calls; a call through an interface
// that declares both Lock and Unlock (func(*sim.Proc)) is assumed to
// honor the protocol — exactly the contract this pass verifies for
// every concrete implementation.
//
// Emission sites must pass a constant trace kind to Proc.LockEvent /
// LockEventArg: a variable kind on a lock path is unclassifiable and
// reported directly.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// ---- intervals ----

// tpInterval is a saturating event-count interval. Anything at or
// above 2 is already a protocol violation, so counts cap there.
type tpInterval struct{ lo, hi int }

func tpSat(x int) int {
	if x > 2 {
		return 2
	}
	if x < 0 {
		return 0
	}
	return x
}

func (i tpInterval) add(o tpInterval) tpInterval {
	return tpInterval{tpSat(i.lo + o.lo), tpSat(i.hi + o.hi)}
}

func (i tpInterval) union(o tpInterval) tpInterval {
	lo, hi := i.lo, i.hi
	if o.lo < lo {
		lo = o.lo
	}
	if o.hi > hi {
		hi = o.hi
	}
	return tpInterval{lo, hi}
}

var tpOne = tpInterval{1, 1}

// tpState tracks events emitted so far on the current path, plus
// deferred emissions that will land at exit.
type tpState struct {
	a, r   tpInterval // emitted acquire-/release-class events
	da, dr tpInterval // deferred emissions
}

// exitEffect is the state observed by the caller at an exit.
func (s tpState) exitEffect() (a, r tpInterval) {
	return s.a.add(s.da), s.r.add(s.dr)
}

type tpClass int

const (
	tpNone tpClass = iota
	tpAcq
	tpRel
)

// ---- the pass ----

// tpExit is one recorded exit path.
type tpExit struct {
	pos   token.Pos
	state tpState
}

// tpResult is a function's memoized analysis: per-exit states plus
// the union summary its callers compose with.
type tpResult struct {
	a, r  tpInterval
	exits []tpExit
}

type traceProtocol struct {
	mp       *ModulePass
	results  map[*FuncNode]*tpResult
	visiting map[*FuncNode]bool
	acqVal   constant.Value
	relVal   constant.Value
}

func runTraceProtocol(mp *ModulePass) {
	tp := &traceProtocol{
		mp:       mp,
		results:  make(map[*FuncNode]*tpResult),
		visiting: make(map[*FuncNode]bool),
	}
	tp.findKindConsts()
	if tp.acqVal == nil || tp.relVal == nil {
		return // no sim package in scope: nothing to classify
	}
	for _, n := range mp.Prog.Nodes {
		if n.Decl == nil || inSimPackage(n) || !isLockImplMethod(n) {
			continue
		}
		tp.checkRoot(n)
	}
}

// findKindConsts resolves the canonical TraceAcquire/TraceRelease
// constant values from the sim package (directly loaded or imported),
// so emissions classify by value even through local constant aliases.
func (tp *traceProtocol) findKindConsts() {
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		if p.Path() == "repro/internal/sim" || strings.HasSuffix(p.Path(), "/internal/sim") {
			if c, ok := p.Scope().Lookup("TraceAcquire").(*types.Const); ok {
				tp.acqVal = c.Val()
			}
			if c, ok := p.Scope().Lookup("TraceRelease").(*types.Const); ok {
				tp.relVal = c.Val()
			}
			return
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range tp.mp.Prog.Pkgs {
		visit(pkg.Types)
	}
}

// checkRoot verifies that every exit of a Lock (Unlock) method emits
// exactly one acquire-class (release-class) event.
func (tp *traceProtocol) checkRoot(n *FuncNode) {
	res := tp.analyze(n)
	isLock := n.Decl.Name.Name == "Lock"
	for _, ex := range res.exits {
		a, r := ex.state.exitEffect()
		iv, class, want := a, "acquire", "TraceAcquire"
		if !isLock {
			iv, class, want = r, "release", "TraceRelease"
		}
		if iv == tpOne {
			continue
		}
		desc := fmt.Sprintf("%d", iv.lo)
		if iv.hi != iv.lo {
			desc = fmt.Sprintf("between %d and %d", iv.lo, iv.hi)
		}
		tp.mp.Reportf(ex.pos,
			"this path through %s emits %s %s-class trace events (exactly one %s required)",
			n.Name, desc, class, want)
	}
}

// analyze walks a function once (memoized). Cycles and bodyless
// functions summarize to zero.
func (tp *traceProtocol) analyze(n *FuncNode) *tpResult {
	if r, ok := tp.results[n]; ok {
		return r
	}
	if tp.visiting[n] || n.Body() == nil {
		return &tpResult{}
	}
	tp.visiting[n] = true
	defer delete(tp.visiting, n)

	f := &tpFunc{tp: tp, node: n}
	walkFlow(f, n.Pkg, n.Body(), &tpState{})
	res := &tpResult{exits: f.exits}
	for i, ex := range f.exits {
		a, r := ex.state.exitEffect()
		if i == 0 {
			res.a, res.r = a, r
		} else {
			res.a = res.a.union(a)
			res.r = res.r.union(r)
		}
	}
	tp.results[n] = res
	return res
}

// ---- effects ----

// tpFunc is the pass's interpretation of one function: the flowPass the
// shared walker drives over interval states.
type tpFunc struct {
	tp    *traceProtocol
	node  *FuncNode
	exits []tpExit
}

func (f *tpFunc) clone(s *tpState) *tpState {
	c := *s
	return &c
}

// merge unions two surviving branches' intervals.
func (f *tpFunc) merge(a, b *tpState) *tpState {
	return &tpState{
		a:  a.a.union(b.a),
		r:  a.r.union(b.r),
		da: a.da.union(b.da),
		dr: a.dr.union(b.dr),
	}
}

func (f *tpFunc) exit(s *tpState, pos token.Pos) {
	f.exits = append(f.exits, tpExit{pos: pos, state: *s})
}

// backEdge reports emissions that would repeat every loop iteration
// (including defers accumulated inside the loop).
func (f *tpFunc) backEdge(entry, at *tpState, pos token.Pos) {
	if entry.a != at.a || entry.da != at.da {
		f.tp.mp.Reportf(pos,
			"acquire-class trace event may be emitted on this loop's back edge; each retry would emit another TraceAcquire")
	}
	if entry.r != at.r || entry.dr != at.dr {
		f.tp.mp.Reportf(pos,
			"release-class trace event may be emitted on this loop's back edge; each retry would emit another TraceRelease")
	}
}

// call adds one call's emissions to the path.
func (f *tpFunc) call(s *tpState, call *ast.CallExpr) {
	a, r := f.effect(call)
	s.a, s.r = s.a.add(a), s.r.add(r)
}

// deferCall registers a deferred call's emissions for every later exit.
func (f *tpFunc) deferCall(s *tpState, call *ast.CallExpr) {
	a, r := f.effect(call)
	s.da, s.dr = s.da.add(a), s.dr.add(r)
}

// effect returns one call's acquire- and release-class emissions: a
// direct LockEvent emission, a resolved callee's summary, or the
// interface-contract assumption for dynamic Lock/Unlock calls.
func (f *tpFunc) effect(call *ast.CallExpr) (a, r tpInterval) {
	info := f.node.Pkg.Info
	if name := simMethodCall(info, call, "Proc"); name == "LockEvent" || name == "LockEventArg" {
		return f.tp.classify(info, call).interval()
	}
	callee := f.tp.mp.Prog.ResolveCall(f.node.Pkg, call)
	if callee == nil {
		return ifaceLockCall(info, call).interval()
	}
	if callee == f.node || inSimPackage(callee) {
		return
	}
	res := f.tp.analyze(callee)
	return res.a, res.r
}

// interval returns the acquire- and release-class counts of one
// emission of class c.
func (c tpClass) interval() (a, r tpInterval) {
	switch c {
	case tpAcq:
		a = tpOne
	case tpRel:
		r = tpOne
	}
	return a, r
}

// classify resolves an emission's trace kind by constant value; a
// non-constant kind on a lock path is itself a finding.
func (tp *traceProtocol) classify(info *types.Info, call *ast.CallExpr) tpClass {
	if len(call.Args) == 0 {
		return tpNone
	}
	arg := call.Args[0]
	tv, ok := info.Types[arg]
	if !ok || tv.Value == nil {
		tp.mp.Reportf(arg.Pos(),
			"trace kind passed to LockEvent is not a constant; traceprotocol cannot classify this emission on a lock path")
		return tpNone
	}
	if constant.Compare(tv.Value, token.EQL, tp.acqVal) {
		return tpAcq
	}
	if constant.Compare(tv.Value, token.EQL, tp.relVal) {
		return tpRel
	}
	return tpNone
}

// ifaceLockCall reports whether an unresolved call is x.Lock(p) or
// x.Unlock(p) through an interface declaring both — assumed to honor
// the protocol this pass verifies per concrete implementation.
func ifaceLockCall(info *types.Info, call *ast.CallExpr) tpClass {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return tpNone
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "Unlock" {
		return tpNone
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return tpNone
	}
	iface, ok := tv.Type.Underlying().(*types.Interface)
	if !ok {
		return tpNone
	}
	hasLock, hasUnlock := false, false
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if !isProcMethodShape(m) {
			continue
		}
		switch m.Name() {
		case "Lock":
			hasLock = true
		case "Unlock":
			hasUnlock = true
		}
	}
	if !hasLock || !hasUnlock {
		return tpNone
	}
	if name == "Lock" {
		return tpAcq
	}
	return tpRel
}
