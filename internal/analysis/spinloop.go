package analysis

// The spinloop pass: a for-loop that polls a Word (free V peek or
// costed Load) without ever reaching a waiting primitive is a
// hand-rolled busy-wait — it burns simulated cycles the event loop
// cannot coalesce and defeats the watcher machinery. Such loops must
// use SpinOn/SpinOnMax with a declared watch set.
//
// Loops are exempt when they contain, outside nested function literals:
//   - a spin or blocking primitive (SpinOn, SpinOnMax, FutexWait,
//     Sleep, Yield) — a retry loop around a proper wait;
//   - a costed atomic RMW (CAS, Xchg, Add) — a TAS-style loop whose
//     polling is the atomic itself, priced by the coherence model.

import (
	"go/ast"
)

var waitPrimitives = map[string]bool{
	"SpinOn": true, "SpinOnMax": true, "FutexWait": true, "Sleep": true, "Yield": true,
}

var rmwPrimitives = map[string]bool{
	"CAS": true, "Xchg": true, "Add": true,
}

func runSpinLoop(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			var reads, waits, rmws bool
			var readPos ast.Node
			// Walk the loop's condition and body, skipping nested function
			// literals (a SpinOn condition inside the loop is not the
			// loop's own polling).
			walk := func(root ast.Node) {
				ast.Inspect(root, func(m ast.Node) bool {
					if _, isLit := m.(*ast.FuncLit); isLit {
						return false
					}
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if name := simMethodCall(pass.Info, call, "Word"); name == "V" {
						if !reads {
							reads, readPos = true, call
						}
					}
					switch name := simMethodCall(pass.Info, call, "Proc"); {
					case name == "Load":
						if !reads {
							reads, readPos = true, call
						}
					case waitPrimitives[name]:
						waits = true
					case rmwPrimitives[name]:
						rmws = true
					}
					return true
				})
			}
			if loop.Cond != nil {
				walk(loop.Cond)
			}
			if loop.Body != nil {
				walk(loop.Body)
			}
			if reads && !waits && !rmws {
				pass.Reportf(readPos.Pos(),
					"hand-rolled busy-wait: loop polls a Word with no SpinOn/FutexWait; use SpinOn with a watch set")
			}
			return true
		})
	}
}
