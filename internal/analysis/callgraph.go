package analysis

// The interprocedural engine: a module-local call graph over go/types.
// Every function declaration and every function literal becomes a
// FuncNode; edges record resolved calls (direct calls, method calls on
// concrete named types, immediately-invoked literals, calls through
// single-assignment local function variables), deferred and go'd calls,
// and "bind" sites where a function value is created or passed without
// being called (closure registration — Machine.Spawn bodies, spin
// conditions, kernel callbacks). Passes build whatever dataflow they
// need on top: reachability (hotalloc, costcoverage) or bottom-up
// context-insensitive summaries (lockpair, traceprotocol), both
// resolved lazily with cycle cutoffs, so recursion degrades to a
// neutral summary instead of diverging.
//
// Deliberate approximations, chosen to keep the engine small and the
// results deterministic:
//
//   - interface method calls stay unresolved (passes layer their own
//     contracts on top — traceprotocol assumes the locks.Lock contract
//     it separately verifies for every implementation);
//   - a local variable bound to more than one function value resolves
//     to nothing;
//   - generic calls resolve to the uninstantiated declaration via
//     types.Func.Origin — one node (and one summary) per generic.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// EdgeKind classifies one call-graph edge.
type EdgeKind uint8

const (
	// EdgeCall is a resolved ordinary call.
	EdgeCall EdgeKind = iota
	// EdgeDefer is a resolved deferred call.
	EdgeDefer
	// EdgeGo is a resolved go statement.
	EdgeGo
	// EdgeBind is a function value created or passed without being
	// called: the target runs later, from whoever holds the value.
	EdgeBind
)

// Edge is one outgoing call-graph edge.
type Edge struct {
	Kind   EdgeKind
	Callee *FuncNode
}

// FuncNode is one function declaration or function literal.
type FuncNode struct {
	Obj    *types.Func // nil for literals
	Name   string      // "pkg.(*T).M", "pkg.F", or "pkg.F$2" for literals
	Pkg    *Package
	Decl   *ast.FuncDecl // exactly one of Decl/Lit is set
	Lit    *ast.FuncLit
	Parent *FuncNode // enclosing function, for literals
	Edges  []Edge

	// SpinCond marks literals (or named functions) passed as the
	// condition argument of Proc.SpinOn/SpinOnMax: they run inside the
	// event loop's spin machinery, not on the simulated thread's op
	// path.
	SpinCond bool
	// SpawnBody marks function values passed as the body argument of
	// Machine.Spawn: they are simulated-thread bodies.
	SpawnBody bool
	// HotPath marks functions carrying a //flexlint:hotpath directive,
	// an explicit opt-in root for the hotalloc pass.
	HotPath bool
	// ColdPath marks functions carrying a //flexlint:coldpath
	// directive: one-time setup (thread spawn, lazy per-thread node
	// registration) that a hot path may call but that is not itself
	// hot. The hotalloc pass does not follow edges into them.
	ColdPath bool
}

// Body returns the function's block.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Type returns the function's signature.
func (n *FuncNode) Type() *ast.FuncType {
	if n.Decl != nil {
		return n.Decl.Type
	}
	return n.Lit.Type
}

// Program is the module-wide call graph.
type Program struct {
	Pkgs  []*Package
	Nodes []*FuncNode // deterministic: package order, then position

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// env maps single-assignment function-valued local variables to
	// their bound function, module-wide.
	env map[*types.Var]*FuncNode
}

const (
	hotPathDirective  = "//flexlint:hotpath"
	coldPathDirective = "//flexlint:coldpath"
)

// BuildProgram constructs the call graph over the given packages
// (typically Loader.ModulePackages; fixture tests pass a single one).
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		byObj: make(map[*types.Func]*FuncNode),
		byLit: make(map[*ast.FuncLit]*FuncNode),
		env:   make(map[*types.Var]*FuncNode),
	}
	// Phase 1: a node per declaration, then per literal (parents before
	// children so literal names nest).
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				n := &FuncNode{
					Obj:      funcObj(pkg, fd),
					Name:     pkg.Path + "." + declName(fd),
					Pkg:      pkg,
					Decl:     fd,
					HotPath:  hasDirective(fd.Doc, hotPathDirective),
					ColdPath: hasDirective(fd.Doc, coldPathDirective),
				}
				if n.Obj != nil {
					prog.byObj[n.Obj] = n
				}
				prog.Nodes = append(prog.Nodes, n)
				prog.addLits(n)
			}
		}
	}
	// Phase 2: module-wide single-assignment bindings of function
	// values to local variables.
	for _, n := range prog.Nodes {
		if n.Lit == nil { // literals are walked as part of their decl
			prog.collectEnv(n)
		}
	}
	// Phase 3: edges.
	for _, n := range prog.Nodes {
		prog.collectEdges(n)
	}
	return prog
}

// addLits creates child nodes for every literal directly inside n's
// body (not inside deeper literals), recursively.
func (p *Program) addLits(parent *FuncNode) {
	i := 0
	walkOwn(parent, func(node ast.Node) {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return
		}
		i++
		child := &FuncNode{
			Name:   fmt.Sprintf("%s$%d", parent.Name, i),
			Pkg:    parent.Pkg,
			Lit:    lit,
			Parent: parent,
		}
		p.byLit[lit] = child
		p.Nodes = append(p.Nodes, child)
		p.addLits(child)
	})
}

// walkOwn visits every node in fn's body that belongs to fn itself,
// not descending into nested function literals (each literal is its
// own FuncNode). The literal node itself is visited.
func walkOwn(fn *FuncNode, visit func(ast.Node)) {
	body := fn.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			visit(lit)
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// collectEnv records x := <func value> bindings for n and its nested
// literals. A variable assigned twice resolves to nothing.
func (p *Program) collectEnv(n *FuncNode) {
	invalid := make(map[*types.Var]bool)
	record := func(ident *ast.Ident, rhs ast.Expr, def bool) {
		var obj types.Object
		if def {
			obj = n.Pkg.Info.Defs[ident]
		} else {
			obj = n.Pkg.Info.Uses[ident]
		}
		v, ok := obj.(*types.Var)
		if !ok || invalid[v] {
			return
		}
		target := p.resolveValue(n.Pkg, rhs)
		if target == nil {
			if _, bound := p.env[v]; bound {
				delete(p.env, v)
				invalid[v] = true
			}
			return
		}
		if prev, bound := p.env[v]; bound && prev != target {
			delete(p.env, v)
			invalid[v] = true
			return
		}
		p.env[v] = target
	}
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				if ident, ok := lhs.(*ast.Ident); ok {
					if !isFuncValued(n.Pkg, s.Rhs[i]) {
						continue
					}
					record(ident, s.Rhs[i], s.Tok.String() == ":=")
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) != len(s.Values) {
				return true
			}
			for i, ident := range s.Names {
				if isFuncValued(n.Pkg, s.Values[i]) {
					record(ident, s.Values[i], true)
				}
			}
		}
		return true
	})
}

// isFuncValued reports whether e's static type is a function type.
func isFuncValued(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}

// resolveValue resolves a function-valued expression (a literal, a
// named function, a method value, or a bound local) to its node.
func (p *Program) resolveValue(pkg *Package, e ast.Expr) *FuncNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return p.byLit[e]
	case *ast.Ident:
		switch obj := pkg.Info.Uses[e].(type) {
		case *types.Func:
			return p.byObj[obj.Origin()]
		case *types.Var:
			return p.env[obj]
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return p.byObj[fn.Origin()]
			}
			return nil
		}
		// Qualified identifier pkg.F.
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return p.byObj[fn.Origin()]
		}
	case *ast.IndexExpr:
		// Generic instantiation F[T] used as a value.
		return p.resolveValue(pkg, e.X)
	case *ast.IndexListExpr:
		return p.resolveValue(pkg, e.X)
	}
	return nil
}

// ResolveCall resolves a call expression to its callee node (nil for
// dynamic dispatch: interface methods, unresolved function values).
func (p *Program) ResolveCall(pkg *Package, call *ast.CallExpr) *FuncNode {
	return p.resolveValue(pkg, call.Fun)
}

// LitNode returns the node for a function literal.
func (p *Program) LitNode(lit *ast.FuncLit) *FuncNode { return p.byLit[lit] }

// collectEdges records n's outgoing edges and classifies the literals
// it creates (spin conditions, spawn bodies, plain binds).
func (p *Program) collectEdges(n *FuncNode) {
	pkg := n.Pkg
	// funPos marks expressions appearing in call position (a bare
	// function value elsewhere is a bind); selSels marks the Sel ident
	// of every selector (an ident bind is only a bind when it is a
	// plain reference, not the name half of x.F).
	funPos := make(map[ast.Expr]bool)
	selSels := make(map[*ast.Ident]bool)
	// asyncCall marks the call expressions owned by a go or defer
	// statement, which get their own edge kind instead of EdgeCall.
	asyncCall := make(map[*ast.CallExpr]bool)
	walkOwn(n, func(node ast.Node) {
		switch node := node.(type) {
		case *ast.CallExpr:
			funPos[ast.Unparen(node.Fun)] = true
		case *ast.SelectorExpr:
			selSels[node.Sel] = true
		case *ast.DeferStmt:
			asyncCall[node.Call] = true
		case *ast.GoStmt:
			asyncCall[node.Call] = true
		}
	})

	addEdge := func(kind EdgeKind, callee *FuncNode) {
		if callee != nil {
			n.Edges = append(n.Edges, Edge{Kind: kind, Callee: callee})
		}
	}

	walkOwn(n, func(node ast.Node) {
		switch node := node.(type) {
		case *ast.DeferStmt:
			addEdge(EdgeDefer, p.ResolveCall(pkg, node.Call))
		case *ast.GoStmt:
			addEdge(EdgeGo, p.ResolveCall(pkg, node.Call))
		case *ast.CallExpr:
			if !asyncCall[node] {
				addEdge(EdgeCall, p.ResolveCall(pkg, node))
			}
			// Classify function values passed as special arguments.
			switch name := simMethodCall(pkg.Info, node, "Proc"); name {
			case "SpinOn", "SpinOnMax":
				if len(node.Args) > 0 {
					if cond := p.resolveValue(pkg, node.Args[0]); cond != nil {
						cond.SpinCond = true
					}
				}
			}
			if simMethodCall(pkg.Info, node, "Machine") == "Spawn" && len(node.Args) > 1 {
				if body := p.resolveValue(pkg, node.Args[1]); body != nil {
					body.SpawnBody = true
				}
			}
		case *ast.FuncLit:
			// A literal in non-call position is a bind; an
			// immediately-invoked literal is already an EdgeCall.
			if !funPos[ast.Expr(node)] {
				addEdge(EdgeBind, p.byLit[node])
			}
		case *ast.SelectorExpr:
			// Method value in non-call position (m.RegisterKillHook(e.onKill)).
			if funPos[ast.Expr(node)] {
				return
			}
			if sel, ok := pkg.Info.Selections[node]; ok && sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					addEdge(EdgeBind, p.byObj[fn.Origin()])
				}
			}
		case *ast.Ident:
			// Named function used as a value.
			if funPos[ast.Expr(node)] {
				return
			}
			if selSels[node] {
				return
			}
			if fn, ok := pkg.Info.Uses[node].(*types.Func); ok {
				addEdge(EdgeBind, p.byObj[fn.Origin()])
			}
		}
	})
}

// Reach computes forward reachability from roots over edges admitted
// by follow, returning for every reached node the name of the first
// root that reaches it (BFS over roots in sorted-name order, so the
// attribution is deterministic).
func (p *Program) Reach(roots []*FuncNode, follow func(Edge) bool) map[*FuncNode]string {
	ordered := append([]*FuncNode(nil), roots...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Name < ordered[j].Name })
	reached := make(map[*FuncNode]string)
	var queue []*FuncNode
	for _, r := range ordered {
		if _, ok := reached[r]; !ok {
			reached[r] = r.Name
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if e.Callee == nil || !follow(e) {
				continue
			}
			if _, ok := reached[e.Callee]; !ok {
				reached[e.Callee] = reached[n]
				queue = append(queue, e.Callee)
			}
		}
	}
	return reached
}

// inSimPackage reports whether the node's package is internal/sim.
func inSimPackage(n *FuncNode) bool { return isSimPath(n.Pkg.Path) }

// declName renders a declaration's diagnostic name: F, (T).M, (*T).M.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	return "(" + types.ExprString(recv) + ")." + fd.Name.Name
}

// funcObj returns the types.Func for a declaration.
func funcObj(pkg *Package, fd *ast.FuncDecl) *types.Func {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	return obj
}
