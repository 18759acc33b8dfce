package analysis

// The outcome walker shared by the bottom-up summary passes (lockpair,
// traceprotocol): an abstract interpreter over one function body,
// generic over the pass's abstract state. The walker owns control flow —
// branches, loops, switch and select clauses, break/continue/goto,
// returns and terminal calls — and the pass owns what a state means,
// through the six operations of flowPass.
//
// Shared approximations: a branch's surviving paths merge with the
// pass's merge; a loop body is interpreted once, from the loop's entry
// state, and its back edges (the end of the body after the post
// statement, and every continue) are checked against that entry rather
// than iterated to a fixed point; labeled branches bind to the nearest
// enclosing loop (continue) or breakable statement (break); goto ends
// the path; panic, os.Exit and log.Fatal/Panic end it without an exit;
// and a select comm statement's calls reach only its own clause, though
// Go evaluates its channel and send operands on entry to the select.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// flowPass is a pass's abstract interpretation over state S. The walker
// changes a state only through call and deferCall, and clones it before
// every fork, so S may be a pointer the pass mutates in place.
type flowPass[S any] interface {
	// clone returns an independent copy of s.
	clone(s S) S
	// merge joins the states of two paths that survive a branch.
	merge(a, b S) S
	// call applies one call's effect to s.
	call(s S, call *ast.CallExpr)
	// deferCall registers a deferred call's effect with s.
	deferCall(s S, call *ast.CallExpr)
	// exit records a path leaving the function at pos in state s.
	exit(s S, pos token.Pos)
	// backEdge checks a loop back edge at pos: the state at the edge
	// against the state on entry to the loop body.
	backEdge(entry, at S, pos token.Pos)
}

// walkFlow interprets body from state entry, reporting every exit path
// (including falling off the end) to p.exit.
func walkFlow[S any](p flowPass[S], pkg *Package, body *ast.BlockStmt, entry S) {
	w := &flowWalker[S]{p: p, pkg: pkg}
	if st, done := w.block(body.List, entry); !done {
		p.exit(st, body.End())
	}
}

type flowWalker[S any] struct {
	p   flowPass[S]
	pkg *Package
	// ctxs is the breakable-context stack (loops and switches).
	ctxs []*flowCtx[S]
}

type flowCtx[S any] struct {
	isLoop bool
	entry  S
	breaks []S
}

// block interprets a statement list. It returns the state after the
// list and whether every path through it terminated.
func (w *flowWalker[S]) block(stmts []ast.Stmt, st S) (S, bool) {
	for _, s := range stmts {
		var done bool
		if st, done = w.stmt(s, st); done {
			return st, true
		}
	}
	return st, false
}

func (w *flowWalker[S]) stmt(s ast.Stmt, st S) (S, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scan(s.X, st)
		return st, isTerminalCall(w.pkg, s.X)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.scan(rhs, st)
		}
		for _, lhs := range s.Lhs {
			w.scan(lhs, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scan(v, st)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.scan(s.X, st)
	case *ast.SendStmt:
		w.scan(s.Chan, st)
		w.scan(s.Value, st)
	case *ast.DeferStmt:
		w.p.deferCall(st, s.Call)
	case *ast.GoStmt:
		// The goroutine runs asynchronously; only its arguments are
		// evaluated here.
		for _, a := range s.Call.Args {
			w.scan(a, st)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scan(r, st)
		}
		w.p.exit(st, s.Pos())
		return st, true
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if len(w.ctxs) > 0 {
				ctx := w.ctxs[len(w.ctxs)-1]
				ctx.breaks = append(ctx.breaks, w.p.clone(st))
			}
			return st, true
		case token.CONTINUE:
			if ctx := w.nearestLoop(); ctx != nil {
				w.p.backEdge(ctx.entry, st, s.Pos())
			}
			return st, true
		case token.GOTO:
			return st, true // out of model: end the path
		}
	case *ast.BlockStmt:
		return w.block(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		w.scan(s.Cond, st)
		thenSt, thenDone := w.block(s.Body.List, w.p.clone(st))
		elseSt, elseDone := w.p.clone(st), false
		if s.Else != nil {
			elseSt, elseDone = w.stmt(s.Else, elseSt)
		}
		switch {
		case thenDone && elseDone:
			return st, true
		case thenDone:
			return elseSt, false
		case elseDone:
			return thenSt, false
		}
		return w.p.merge(thenSt, elseSt), false
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scan(s.Cond, st)
		}
		return w.loop(s.Body, s.Post, st, s.Cond != nil)
	case *ast.RangeStmt:
		w.scan(s.X, st)
		return w.loop(s.Body, nil, st, true)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scan(s.Tag, st)
		}
		return w.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		return w.clauses(s.Body, st)
	case *ast.SelectStmt:
		return w.clauses(s.Body, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	}
	return st, false
}

// loop interprets one loop body from the loop's entry state and checks
// its back edge. The state after the loop merges the entry state (zero
// iterations, or a clean exit through the condition; canSkip) with
// every break state.
func (w *flowWalker[S]) loop(body *ast.BlockStmt, post ast.Stmt, st S, canSkip bool) (S, bool) {
	ctx := &flowCtx[S]{isLoop: true, entry: w.p.clone(st)}
	w.ctxs = append(w.ctxs, ctx)
	if bodySt, done := w.block(body.List, w.p.clone(st)); !done {
		if post != nil {
			bodySt, _ = w.stmt(post, bodySt)
		}
		w.p.backEdge(ctx.entry, bodySt, body.End())
	}
	w.ctxs = w.ctxs[:len(w.ctxs)-1]
	outs := ctx.breaks
	if canSkip {
		outs = append([]S{ctx.entry}, outs...)
	}
	return w.join(st, outs)
}

// clauses interprets a switch, type switch or select: each clause runs
// from the entry state, and the state after merges the surviving
// clauses, the breaks and — without a default clause — the entry state.
// Case expressions are evaluated in order until one matches, so each
// one's calls apply to the entry state itself: they reach its clause,
// every later clause and the no-match path, which is why the default
// clause runs last. A comm clause's body starts from the state after
// its comm statement.
func (w *flowWalker[S]) clauses(body *ast.BlockStmt, st S) (S, bool) {
	ctx := &flowCtx[S]{entry: w.p.clone(st)}
	w.ctxs = append(w.ctxs, ctx)
	var outs []S
	var dflt *ast.CaseClause
	for _, clause := range body.List {
		var start S
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				dflt = c
				continue
			}
			for _, e := range c.List {
				w.scan(e, ctx.entry)
			}
			start, stmts = w.p.clone(ctx.entry), c.Body
		case *ast.CommClause:
			start, stmts = w.p.clone(ctx.entry), c.Body
			if c.Comm != nil {
				start, _ = w.stmt(c.Comm, start)
			}
		}
		if out, done := w.block(stmts, start); !done {
			outs = append(outs, out)
		}
	}
	if dflt != nil {
		if out, done := w.block(dflt.Body, w.p.clone(ctx.entry)); !done {
			outs = append(outs, out)
		}
	}
	outs = append(outs, ctx.breaks...)
	w.ctxs = w.ctxs[:len(w.ctxs)-1]
	if dflt == nil {
		outs = append(outs, ctx.entry)
	}
	return w.join(st, outs)
}

// join merges the surviving states in order; with none left, every path
// terminated.
func (w *flowWalker[S]) join(st S, outs []S) (S, bool) {
	if len(outs) == 0 {
		return st, true
	}
	after := outs[0]
	for _, o := range outs[1:] {
		after = w.p.merge(after, o)
	}
	return after, false
}

func (w *flowWalker[S]) nearestLoop() *flowCtx[S] {
	for i := len(w.ctxs) - 1; i >= 0; i-- {
		if w.ctxs[i].isLoop {
			return w.ctxs[i]
		}
	}
	return nil
}

// scan applies every call in e to st, in syntactic order, skipping
// function literals: they are their own contexts.
func (w *flowWalker[S]) scan(e ast.Expr, st S) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.p.call(st, call)
		}
		return true
	})
}

// isTerminalCall reports whether the expression statement ends the
// path: panic(...), os.Exit(...), or log.Fatal*/Panic*.
func isTerminalCall(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := pkg.Info.Uses[fun].(*types.Builtin); ok && fun.Name == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		if pkgName, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[pkgName].(*types.PkgName); ok {
				p, m := pn.Imported().Path(), fun.Sel.Name
				if p == "os" && m == "Exit" {
					return true
				}
				if p == "log" && (m == "Fatal" || m == "Fatalf" || m == "Fatalln" || m == "Panic" || m == "Panicf") {
					return true
				}
			}
		}
	}
	return false
}
