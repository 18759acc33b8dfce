package analysis

// The costcoverage module pass: every shared-memory access outside
// internal/sim must flow through a costed Proc op (Load/Store/CAS/
// Xchg/Add — charged virtual time, serialized by the event loop). The
// two escape hatches are checked interprocedurally:
//
//   - the free peek Word.V is legal only in spin-condition context
//     (function values passed to SpinOn/SpinOnMax, and helpers
//     reachable only from them — the event loop re-evaluates those
//     from inside the scheduler), in kernel-side hook code, and in
//     post-run inspection. The pass flags a V call exactly when its
//     function is reachable from simulated-thread context: a function
//     taking *sim.Proc, or a Machine.Spawn thread body.
//   - kernel-side writes (Machine.KernelStore/KernelAdd) must never be
//     reachable from simulated-thread context at all — they bypass
//     both the cost model and the tracer's happens-before edges.
//
// Kernel hooks, observers and post-run verification never take a Proc
// and are never reached from one, so they stay silent by construction
// rather than by annotation.

import (
	"go/ast"
	"go/types"
)

func runCostCoverage(mp *ModulePass) {
	prog := mp.Prog

	// Roots: simulated-thread context.
	var roots []*FuncNode
	for _, n := range prog.Nodes {
		if inSimPackage(n) {
			continue
		}
		if n.SpawnBody || hasProcParam(n) {
			roots = append(roots, n)
		}
	}

	// Thread reach: follow calls, defers and binds, but stop at spin
	// conditions (their own context) and at the sim package boundary
	// (the op API's implementation is the thing being trusted).
	reached := prog.Reach(roots, func(e Edge) bool {
		if e.Callee.SpinCond || inSimPackage(e.Callee) {
			return false
		}
		// A nested Spawn body is itself a root; go statements leave
		// the simulated thread.
		return e.Kind != EdgeGo
	})

	for _, n := range prog.Nodes {
		root, ok := reached[n]
		if !ok || n.SpinCond {
			continue
		}
		via := ""
		if root != n.Name {
			via = " (reached from " + root + ")"
		}
		walkOwn(n, func(node ast.Node) {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return
			}
			if simMethodCall(n.Pkg.Info, call, "Word") == "V" {
				mp.Reportf(call.Pos(),
					"free peek Word.V on a simulated-thread path%s outside a spin condition; use Proc.Load (costed, serialized)", via)
			}
			switch name := simMethodCall(n.Pkg.Info, call, "Machine"); name {
			case "KernelStore", "KernelAdd":
				mp.Reportf(call.Pos(),
					"kernel-side write Machine.%s reachable from simulated-thread context%s; use the Proc op API", name, via)
			}
		})
	}
}

// hasProcParam reports whether the function takes a *sim.Proc
// parameter (the signature of simulated-thread code).
func hasProcParam(n *FuncNode) bool {
	t := n.Type()
	if t.Params == nil {
		return false
	}
	for _, field := range t.Params.List {
		tv, ok := n.Pkg.Info.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		if _, ptr := tv.Type.(*types.Pointer); ptr && isSimNamed(tv.Type, "Proc") {
			return true
		}
	}
	return false
}
