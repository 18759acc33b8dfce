// Package fixture holds a hot path with no allocation: fixed-size
// locals, costed ops, setup work outside the hot region, and one
// explicitly allowed bounded growth.
package fixture

import "repro/internal/sim"

type spin struct{ w *sim.Word }

func (l *spin) Lock(p *sim.Proc) {
	for p.CAS(l.w, 0, 1) != 0 {
		p.Pause()
	}
	p.IncCS()
}

func (l *spin) Unlock(p *sim.Proc) {
	p.DecCS()
	p.StoreRel(l.w, 0)
}

//flexlint:hotpath
func hotStep(p *sim.Proc, w *sim.Word) {
	var buf [8]uint64 // fixed-size array: stays on the stack
	for i := range buf {
		buf[i] = p.Load(w)
	}
	p.Store(w, buf[0])
}

// setup runs once before the simulation starts; it is not reachable
// from any hot root and may allocate freely.
func setup(m *sim.Machine) []*sim.Word {
	words := m.NewWords("cells", 64)
	index := make(map[string]*sim.Word, len(words))
	for _, w := range words {
		index[w.Name()] = w
	}
	return words
}

// table grows a bounded worker registry under the lock — allowed with
// a documented reason, which the stale audit will keep honest.
type table struct {
	w    *sim.Word
	byID []int32
}

func (t *table) Lock(p *sim.Proc) {
	for p.CAS(t.w, 0, 1) != 0 {
		p.Pause()
	}
	//flexlint:allow hotalloc one-time growth bounded by the worker cap
	t.byID = append(t.byID, int32(p.ID()))
}

func (t *table) Unlock(p *sim.Proc) { p.StoreRel(t.w, 0) }

// denseObs is an allocation-free lock observer: per-thread state in a
// slice indexed by tid, grown by a coldpath helper on first sight.
type denseObs struct{ perThread []int64 }

func (o *denseObs) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	if tid < 0 {
		return
	}
	if int(tid) >= len(o.perThread) {
		o.grow(int(tid) + 1)
	}
	o.perThread[tid]++
}

//flexlint:coldpath
func (o *denseObs) grow(n int) {
	for len(o.perThread) < n {
		o.perThread = append(o.perThread, 0)
	}
}

// notObs has a LockEvent method that implements no sim interface: it
// is not a root, and its allocation is not on a hot path.
type notObs struct{}

func (notObs) LockEvent(kind sim.TraceKind) []sim.TraceKind {
	return []sim.TraceKind{kind}
}
