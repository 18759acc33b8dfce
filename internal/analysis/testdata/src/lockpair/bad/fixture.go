// Package fixture exercises the interprocedural lockpair pass: exit
// paths that disagree on held locks, lock-leaking loops, and thread
// bodies that exit holding a lock — no annotations required.
package fixture

import "repro/internal/sim"

type mutex struct{}

func (*mutex) Lock(p *sim.Proc)   {}
func (*mutex) Unlock(p *sim.Proc) {}

// leakyEarlyReturn forgets the unlock on the early-return path.
func leakyEarlyReturn(p *sim.Proc, mu *mutex, w *sim.Word) {
	mu.Lock(p) // want "mu.Lock has no matching Unlock"
	if p.Load(w) == 0 {
		return
	}
	mu.Unlock(p)
}

// leakyWorker spawns a body that never releases.
func leakyWorker(m *sim.Machine, mu *mutex) {
	m.Spawn("w", func(p *sim.Proc) {
		mu.Lock(p) // want "mu.Lock is still held when the thread body exits"
	})
}

// lockInLoop acquires once per iteration without releasing.
func lockInLoop(p *sim.Proc, mu *mutex, n int) {
	for i := 0; i < n; i++ {
		mu.Lock(p) // want "mu is not lock-neutral across this loop iteration"
	}
}

// acquire is a helper whose net effect (+mu) composes at call sites.
func acquire(p *sim.Proc, mu *mutex) {
	mu.Lock(p)
}

// leakyThroughHelper leaks interprocedurally: the helper's summary
// surfaces at the thread-body exit, two frames away from the Lock.
func leakyThroughHelper(m *sim.Machine, mu *mutex) {
	m.Spawn("w", func(p *sim.Proc) {
		acquire(p, mu) // want "mu.Lock is still held when the thread body exits"
	})
}

// unbalancedRelease releases on one path only — the exits disagree.
func unbalancedRelease(p *sim.Proc, mu *mutex, w *sim.Word) {
	if p.Load(w) == 0 {
		mu.Unlock(p)
		return // want "exit paths disagree on mu.Unlock"
	}
}

// lockedKey takes mu and returns a switch key.
func lockedKey(p *sim.Proc, mu *mutex) int {
	mu.Lock(p)
	return 1
}

// leakyCaseExpr takes the lock in a case expression, which runs
// whether or not its clause is chosen.
func leakyCaseExpr(m *sim.Machine, mu *mutex, k int) {
	m.Spawn("w", func(p *sim.Proc) {
		switch k {
		case lockedKey(p, mu): // want "mu.Lock is still held when the thread body exits"
		}
	})
}

// leakyDefault leaks on the default path only. Written first, the
// default clause still runs after every case expression.
func leakyDefault(m *sim.Machine, mu *mutex, k int) {
	m.Spawn("w", func(p *sim.Proc) {
		switch k {
		default:
		case lockedKey(p, mu): // want "mu.Lock is still held when the thread body exits"
			mu.Unlock(p)
		}
	})
}

// leakyCommClause takes the lock while computing a value to send.
func leakyCommClause(m *sim.Machine, mu *mutex, ch chan int) {
	m.Spawn("w", func(p *sim.Proc) {
		select {
		case ch <- lockedKey(p, mu): // want "mu.Lock is still held when the thread body exits"
		}
	})
}
