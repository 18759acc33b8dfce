package analysis

// The lockpair module pass: annotation-free Lock/Unlock pairing over
// the whole-module call graph.
//
// Every function (declaration or literal) is interpreted over a
// held-lock state: x.Lock(...) adds the rendered receiver expression,
// x.Unlock(...) removes it, and a resolved call applies the callee's
// summary — its net held-delta, with entries rooted at the callee's
// receiver/parameters substituted by the caller's argument expressions
// — so acquire/release helpers compose without annotations. Three
// rules carry the teeth:
//
//  1. every exit path of a function must agree on the held set (a
//     consistent nonzero delta is legal — that is what lock wrappers
//     and acquire helpers look like — and becomes the summary);
//  2. loop bodies must be lock-neutral per iteration;
//  3. simulated-thread bodies (function values passed to
//     Machine.Spawn) must exit with nothing held — the point where a
//     consistent leak anywhere down the call chain surfaces.
//
// Each function is interpreted on the statement walker this pass
// shares with traceprotocol (flow.go). Approximations: branches merge
// by union (a conditional acquire balanced by a conditional release is
// assumed intentional), recursion summarizes to neutral, goroutines and
// unresolved dynamic calls are lock-neutral, and labeled branches bind
// to the nearest loop.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ---- state ----

// lpInfo is one held (or over-released) lock's bookkeeping.
type lpInfo struct {
	count int
	sites []ast.Node   // Lock call sites, oldest first
	root  types.Object // leftmost ident's object, for summary rooting
}

func (i *lpInfo) clone() *lpInfo {
	c := *i
	c.sites = append([]ast.Node(nil), i.sites...)
	return &c
}

// lpState is the abstract state: held counts plus deferred releases.
type lpState struct {
	held     map[string]*lpInfo
	deferred map[string]int
}

func newLPState() *lpState {
	return &lpState{held: make(map[string]*lpInfo), deferred: make(map[string]int)}
}

func (s *lpState) clone() *lpState {
	c := newLPState()
	for k, v := range s.held {
		c.held[k] = v.clone()
	}
	for k, v := range s.deferred {
		c.deferred[k] = v
	}
	return c
}

// add adjusts a key by delta, remembering the site and root on
// acquisition.
func (s *lpState) add(key string, delta int, site ast.Node, root types.Object) {
	info := s.held[key]
	if info == nil {
		info = &lpInfo{root: root}
		s.held[key] = info
	}
	info.count += delta
	if delta > 0 && site != nil {
		info.sites = append(info.sites, site)
	}
	if info.root == nil {
		info.root = root
	}
}

// effective returns the exit-effective counts: held minus deferred.
func (s *lpState) effective() map[string]*lpInfo {
	out := make(map[string]*lpInfo, len(s.held))
	for k, v := range s.held {
		out[k] = v.clone()
	}
	for k, d := range s.deferred {
		info := out[k]
		if info == nil {
			info = &lpInfo{}
			out[k] = info
		}
		info.count -= d
	}
	return out
}

func sortedLPKeys(m map[string]*lpInfo) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

// ---- summaries ----

const (
	lpRootRecv = iota
	lpRootParam
	lpRootGlobal
	lpRootOpaque
)

// lpDeltaEntry is one summary entry: "the callee's net effect on
// <root><suffix> is count".
type lpDeltaEntry struct {
	rootKind int
	param    int          // for lpRootParam
	global   types.Object // for lpRootGlobal
	suffix   string       // rendered tail after the root ident ("" or ".wl")
	opaque   string       // full token for lpRootOpaque
	count    int
}

// lpSummary is a function's net held-delta across its (consistent)
// exits. Inconsistent or cyclic functions summarize to neutral.
type lpSummary struct {
	entries []lpDeltaEntry
}

// ---- the pass ----

type lockPair struct {
	mp        *ModulePass
	summaries map[*FuncNode]*lpSummary
	visiting  map[*FuncNode]bool
}

func runLockPair(mp *ModulePass) {
	lp := &lockPair{
		mp:        mp,
		summaries: make(map[*FuncNode]*lpSummary),
		visiting:  make(map[*FuncNode]bool),
	}
	for _, n := range mp.Prog.Nodes {
		lp.summarize(n)
	}
}

// summarize analyzes a function once (memoized), reporting violations
// and returning its summary. Cycles summarize to neutral.
func (lp *lockPair) summarize(n *FuncNode) *lpSummary {
	if s, ok := lp.summaries[n]; ok {
		return s
	}
	if lp.visiting[n] || n.Body() == nil {
		return &lpSummary{}
	}
	lp.visiting[n] = true
	defer func() { lp.visiting[n] = false }()

	f := &lpFunc{lp: lp, node: n}
	walkFlow(f, n.Pkg, n.Body(), newLPState())
	s := f.finish()
	lp.summaries[n] = s
	return s
}

// lpExit is one recorded exit path: position and effective held state.
type lpExit struct {
	pos   token.Pos
	state map[string]*lpInfo
}

// lpFunc is the pass's interpretation of one function: the flowPass
// the shared walker drives over held-lock states.
type lpFunc struct {
	lp    *lockPair
	node  *FuncNode
	exits []lpExit
}

func (f *lpFunc) clone(s *lpState) *lpState { return s.clone() }

// merge unions two states (max held count per key — a lock held on
// either surviving branch is treated as held after the merge).
func (f *lpFunc) merge(a, b *lpState) *lpState {
	out := a.clone()
	for k, bi := range b.held {
		ai := out.held[k]
		if ai == nil {
			out.held[k] = bi.clone()
			continue
		}
		if bi.count > ai.count {
			ai.count = bi.count
		}
		if len(ai.sites) == 0 {
			ai.sites = append([]ast.Node(nil), bi.sites...)
		}
		if ai.root == nil {
			ai.root = bi.root
		}
	}
	for k, d := range b.deferred {
		if d > out.deferred[k] {
			out.deferred[k] = d
		}
	}
	return out
}

// exit snapshots an exit path's effective state.
func (f *lpFunc) exit(s *lpState, pos token.Pos) {
	f.exits = append(f.exits, lpExit{pos: pos, state: s.effective()})
}

// finish checks exit consistency and the thread-body rule, then builds
// the summary.
func (f *lpFunc) finish() *lpSummary {
	fset := f.lp.mp.Fset
	if len(f.exits) == 0 {
		return &lpSummary{}
	}

	// Thread bodies must exit clean.
	if f.node.SpawnBody {
		for _, ex := range f.exits {
			for _, key := range sortedLPKeys(ex.state) {
				info := ex.state[key]
				if info.count <= 0 {
					continue
				}
				pos := ex.pos
				if len(info.sites) > 0 {
					pos = info.sites[0].Pos()
				}
				f.lp.mp.Reportf(pos,
					"%s.Lock is still held when the thread body exits at line %d",
					key, fset.Position(ex.pos).Line)
			}
		}
	}

	// All exits must agree.
	consistent := true
	union := make(map[string]bool)
	for _, ex := range f.exits {
		for k, info := range ex.state {
			if info.count != 0 {
				union[k] = true
			}
		}
	}
	keys := make([]string, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, key := range keys {
		countAt := func(ex lpExit) int {
			if info := ex.state[key]; info != nil {
				return info.count
			}
			return 0
		}
		base := countAt(f.exits[0])
		for _, ex := range f.exits[1:] {
			if countAt(ex) == base {
				continue
			}
			consistent = false
			// Find a held exit and a released exit for the message.
			var heldEx, freeEx *lpExit
			for i := range f.exits {
				ex := &f.exits[i]
				if countAt(*ex) > 0 && heldEx == nil {
					heldEx = ex
				}
				if countAt(*ex) <= 0 && freeEx == nil {
					freeEx = ex
				}
			}
			if heldEx != nil && freeEx != nil {
				pos := heldEx.pos
				if info := heldEx.state[key]; info != nil && len(info.sites) > 0 {
					pos = info.sites[0].Pos()
				}
				f.lp.mp.Reportf(pos,
					"%s.Lock has no matching Unlock on the path exiting at line %d (it is released on the path exiting at line %d)",
					key, fset.Position(heldEx.pos).Line, fset.Position(freeEx.pos).Line)
			} else {
				f.lp.mp.Reportf(f.exits[0].pos,
					"exit paths disagree on %s.Unlock (lines %d and %d release it a different number of times)",
					key, fset.Position(f.exits[0].pos).Line, fset.Position(ex.pos).Line)
			}
			break
		}
	}
	if !consistent || f.node.SpawnBody {
		return &lpSummary{}
	}

	// Consistent: the first exit is the summary.
	return f.buildSummary(f.exits[0].state)
}

// buildSummary roots each net count at the callee's receiver, a
// parameter, a package-level object, or an opaque token.
func (f *lpFunc) buildSummary(state map[string]*lpInfo) *lpSummary {
	recvObj, params := calleeParams(f.node)
	s := &lpSummary{}
	for _, key := range sortedLPKeys(state) {
		info := state[key]
		if info.count == 0 {
			continue
		}
		e := lpDeltaEntry{count: info.count}
		switch {
		case info.root != nil && info.root == recvObj:
			e.rootKind = lpRootRecv
			e.suffix = suffixAfterRoot(key)
		case info.root != nil && paramIndex(params, info.root) >= 0:
			e.rootKind = lpRootParam
			e.param = paramIndex(params, info.root)
			e.suffix = suffixAfterRoot(key)
		case info.root != nil && isPackageLevel(info.root):
			e.rootKind = lpRootGlobal
			e.global = info.root
			e.suffix = suffixAfterRoot(key)
		default:
			e.rootKind = lpRootOpaque
			e.opaque = f.node.Name + "#" + key
		}
		s.entries = append(s.entries, e)
	}
	return s
}

// ---- effects ----

// backEdge reports locks whose count changed across one loop iteration
// (or a continue path).
func (f *lpFunc) backEdge(entry, at *lpState, pos token.Pos) {
	entryEff := entry.effective()
	atEff := at.effective()
	union := make(map[string]bool)
	for k, v := range entryEff {
		if v.count != 0 {
			union[k] = true
		}
	}
	for k, v := range atEff {
		if v.count != 0 {
			union[k] = true
		}
	}
	keys := make([]string, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, key := range keys {
		e, a := 0, 0
		if info := entryEff[key]; info != nil {
			e = info.count
		}
		var site ast.Node
		if info := atEff[key]; info != nil {
			a = info.count
			if len(info.sites) > 0 {
				site = info.sites[len(info.sites)-1]
			}
		}
		if e == a {
			continue
		}
		rpos := pos
		if a > e && site != nil {
			rpos = site.Pos()
		}
		f.lp.mp.Reportf(rpos,
			"%s is not lock-neutral across this loop iteration (net %+d per pass)", key, a-e)
	}
}

// call applies one call's lock effect: the syntactic Lock/Unlock
// primitive, plus the resolved callee's summary.
func (f *lpFunc) call(state *lpState, call *ast.CallExpr) {
	pkg := f.node.Pkg
	if recvExpr, name := lockCallExpr(call); name != "" {
		key := types.ExprString(recvExpr)
		root := rootObjOf(pkg, recvExpr)
		if name == "Lock" {
			state.add(key, 1, call, root)
		} else {
			state.add(key, -1, nil, root)
		}
	}
	callee := f.lp.mp.Prog.ResolveCall(pkg, call)
	if callee == nil || callee == f.node {
		return
	}
	sum := f.lp.summarize(callee)
	for _, entry := range sum.entries {
		key, root := f.substitute(call, callee, entry)
		state.add(key, entry.count, call, root)
	}
}

// deferCall registers a deferred call's releases (a deferred Unlock,
// or a deferred helper with a negative summary).
func (f *lpFunc) deferCall(state *lpState, call *ast.CallExpr) {
	pkg := f.node.Pkg
	if recvExpr, name := lockCallExpr(call); name == "Unlock" {
		state.deferred[types.ExprString(recvExpr)]++
		return
	} else if name == "Lock" {
		// defer x.Lock() is nonsense; treat as immediate.
		state.add(types.ExprString(recvExpr), 1, call, rootObjOf(pkg, recvExpr))
		return
	}
	callee := f.lp.mp.Prog.ResolveCall(pkg, call)
	if callee == nil {
		return
	}
	sum := f.lp.summarize(callee)
	for _, entry := range sum.entries {
		if entry.count >= 0 {
			continue
		}
		key, _ := f.substitute(call, callee, entry)
		state.deferred[key] += -entry.count
	}
}

// substitute renders a callee summary entry in the caller's context.
func (f *lpFunc) substitute(call *ast.CallExpr, callee *FuncNode, e lpDeltaEntry) (string, types.Object) {
	pkg := f.node.Pkg
	switch e.rootKind {
	case lpRootRecv:
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			base := types.ExprString(sel.X)
			return base + e.suffix, rootObjOf(pkg, sel.X)
		}
	case lpRootParam:
		if e.param < len(call.Args) {
			arg := call.Args[e.param]
			base := types.ExprString(arg)
			return base + e.suffix, rootObjOf(pkg, arg)
		}
	case lpRootGlobal:
		base := e.global.Name()
		if e.global.Pkg() != nil {
			base = e.global.Pkg().Path() + "." + base
		}
		return base + e.suffix, e.global
	}
	if e.opaque != "" {
		return e.opaque, nil
	}
	return callee.Name + "#" + e.suffix, nil
}

// ---- small helpers ----

// lockCallExpr returns (receiver expr, method) for x.Lock()/x.Unlock().
func lockCallExpr(call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	if name := sel.Sel.Name; name == "Lock" || name == "Unlock" {
		return sel.X, name
	}
	return nil, ""
}

// rootObjOf returns the leftmost identifier's object in an expression
// chain (x in x.a.b, after unwrapping parens/stars/indexes).
func rootObjOf(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[x]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// suffixAfterRoot strips the leading identifier from a rendered
// expression ("l.wl" -> ".wl", "mu" -> "").
func suffixAfterRoot(key string) string {
	if i := strings.IndexAny(key, ".["); i >= 0 {
		return key[i:]
	}
	return ""
}

// calleeParams returns the receiver and parameter objects of a
// declared function (nil/nil for literals — their summaries root at
// globals or opaque tokens only... parameters of literals work too).
func calleeParams(n *FuncNode) (types.Object, []types.Object) {
	info := n.Pkg.Info
	var recv types.Object
	if n.Decl != nil && n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 && len(n.Decl.Recv.List[0].Names) > 0 {
		recv = info.Defs[n.Decl.Recv.List[0].Names[0]]
	}
	var params []types.Object
	if t := n.Type(); t.Params != nil {
		for _, field := range t.Params.List {
			for _, name := range field.Names {
				params = append(params, info.Defs[name])
			}
		}
	}
	return recv, params
}

func paramIndex(params []types.Object, obj types.Object) int {
	for i, p := range params {
		if p != nil && p == obj {
			return i
		}
	}
	return -1
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// sortStrings keeps report order deterministic.
func sortStrings(s []string) { sort.Strings(s) }
