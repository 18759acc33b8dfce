// Package fixture holds lock flows the interprocedural pass must
// accept: per-path unlocks, deferred unlocks, acquire/release helpers
// composing across calls, lock wrappers with a consistent nonzero
// delta, and loop-neutral bodies.
package fixture

import "repro/internal/sim"

type mutex struct{}

func (*mutex) Lock(p *sim.Proc)   {}
func (*mutex) Unlock(p *sim.Proc) {}

// balanced releases on every path.
func balanced(p *sim.Proc, mu *mutex, w *sim.Word) uint64 {
	mu.Lock(p)
	if p.Load(w) == 0 {
		mu.Unlock(p)
		return 0
	}
	v := p.Load(w)
	mu.Unlock(p)
	return v
}

// deferred satisfies every exit.
func deferred(p *sim.Proc, mu *mutex, w *sim.Word) uint64 {
	mu.Lock(p)
	defer mu.Unlock(p)
	if p.Load(w) == 0 {
		return 0
	}
	return p.Load(w)
}

// acquire and release are helpers; their summaries (+mu / -mu) pair up
// at the call sites below without any annotation.
func acquire(p *sim.Proc, mu *mutex) {
	mu.Lock(p)
}

func release(p *sim.Proc, mu *mutex) {
	mu.Unlock(p)
}

// viaHelpers is a thread body balanced through the helper pair.
func viaHelpers(m *sim.Machine, mu *mutex, w *sim.Word) {
	m.Spawn("w", func(p *sim.Proc) {
		acquire(p, mu)
		p.Store(w, 1)
		release(p, mu)
	})
}

// wrapper is a lock built on an inner lock: a consistent nonzero
// delta (+s.inner in Lock, -s.inner in Unlock) is a legal summary.
type wrapper struct{ inner mutex }

func (s *wrapper) Lock(p *sim.Proc)   { s.inner.Lock(p) }
func (s *wrapper) Unlock(p *sim.Proc) { s.inner.Unlock(p) }

// loopNeutral acquires and releases within each iteration.
func loopNeutral(p *sim.Proc, mu *mutex, w *sim.Word, n int) {
	for i := 0; i < n; i++ {
		mu.Lock(p)
		p.Store(w, uint64(i))
		mu.Unlock(p)
	}
}

// lockedIndex takes mu and returns an index.
func lockedIndex(p *sim.Proc, mu *mutex) int {
	mu.Lock(p)
	return 0
}

// recvTarget takes the lock in a receive's assignment target, which is
// evaluated only once its clause is chosen, and releases it there.
func recvTarget(m *sim.Machine, mu *mutex, in, other chan int) {
	m.Spawn("w", func(p *sim.Proc) {
		var got [1]int
		select {
		case got[lockedIndex(p, mu)] = <-in:
			mu.Unlock(p)
		case <-other:
		}
	})
}
