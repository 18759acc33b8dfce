package locks

import "repro/internal/sim"

// Malthusian waiter states (node.locked word).
const (
	mGranted    = 0
	mActive     = 1 // spinning in the MCS queue
	mCulled     = 3 // moved to the passive list, spin-then-park
	mParked     = 4 // culled and blocked on the node futex
	mReinserted = 5 // unused sentinel kept for debugging dumps
)

// malthusianPark is the spin-then-park timeout of culled waiters; like all
// spin-then-park budgets it is a heuristic (§2.2). The generous default
// (matching LiTL-style spin-then-park budgets) keeps culled threads
// spinning long enough that the lock still collapses under
// oversubscription, as the paper observes in Figure 1.
const malthusianPark = sim.Time(100_000)

// mNode is a Malthusian queue node (one per thread per lock).
type mNode struct {
	locked *sim.Word
	next   *sim.Word
}

// Malthusian is Dice's Malthusian lock (§2.2): an MCS lock whose releasing
// holder culls surplus waiters from the active queue into a passive LIFO
// list, where they eventually block after a spin-then-park timeout. The
// active queue stays minimal, trading short-term fairness for performance.
// Passive waiters are re-inserted only when the active queue drains.
type Malthusian struct {
	m     *sim.Machine
	tail  *sim.Word
	nodes map[int]*mNode // allocated with the first node
	lid   int32
	// passive is the culled-thread LIFO. It is only touched by the current
	// lock holder during unlock, so the lock itself serializes access.
	passive []int
	// unlocks counts releases to pace the long-term-fairness promotion of
	// passive waiters back into the active queue.
	unlocks uint64
}

// malthusianPromote is the promotion period: one passive waiter is
// re-inserted at the queue head every this many releases, bounding
// passive-list starvation (the "long-term fairness" policy of the
// Malthusian design).
const malthusianPromote = 64

// NewMalthusian returns a Malthusian lock.
func NewMalthusian(m *sim.Machine, name string) *Malthusian {
	lid := m.RegisterLockName(name)
	return &Malthusian{m: m, tail: m.NewLockWord(lid, ".tail", 0), lid: lid}
}

// node returns (allocating on first use) thread id's queue node.
//
//flexlint:coldpath
func (l *Malthusian) node(id int) *mNode {
	n := l.nodes[id]
	if n == nil {
		if l.nodes == nil {
			l.nodes = make(map[int]*mNode)
		}
		n = &mNode{
			locked: l.m.NewLockWordAt(l.lid, ".n", id, ".locked", 0),
			next:   l.m.NewLockWordAt(l.lid, ".n", id, ".next", 0),
		}
		l.nodes[id] = n
	}
	return n
}

// Lock implements Lock.
func (l *Malthusian) Lock(p *sim.Proc) {
	qn := l.node(p.ID())
	p.Store(qn.next, 0)
	p.Store(qn.locked, mActive)
	pred := p.Xchg(l.tail, enc(p.ID()))
	if pred == 0 {
		p.LockEvent(sim.TraceAcquire, l.lid)
		return
	}
	p.Store(l.node(dec(pred)).next, enc(p.ID()))
	for {
		p.LockEvent(sim.TraceSpinStart, l.lid)
		p.SpinOn(func() bool { return qn.locked.V() == mActive }, qn.locked)
		switch p.Load(qn.locked) {
		case mGranted:
			p.LockEvent(sim.TraceAcquire, l.lid)
			return
		case mCulled:
			// Culled to the passive list: spin briefly, then block on the
			// node until the holder re-inserts/grants us.
			p.LockEvent(sim.TraceSpinStart, l.lid)
			if !p.SpinOnMax(func() bool { return qn.locked.V() == mCulled }, malthusianPark, qn.locked) {
				if p.CAS(qn.locked, mCulled, mParked) == mCulled {
					p.LockEvent(sim.TraceLockBlock, l.lid)
					p.FutexWait(qn.locked, mParked)
				}
			}
		}
	}
}

// grant hands the lock to thread id, waking it if it parked.
func (l *Malthusian) grant(p *sim.Proc, id int) {
	n := l.node(id)
	p.LockEventArg(sim.TraceHandover, l.lid, int32(id))
	if p.Xchg(n.locked, mGranted) == mParked {
		p.FutexWake(n.locked, 1)
		p.LockEvent(sim.TraceLockWake, l.lid)
	}
}

// Unlock implements Lock.
func (l *Malthusian) Unlock(p *sim.Proc) {
	qn := l.node(p.ID())
	p.LockEvent(sim.TraceRelease, l.lid)
	l.unlocks++
	succ := p.Load(qn.next)
	if succ != 0 && l.unlocks%malthusianPromote == 0 && len(l.passive) > 0 {
		// Long-term fairness: promote one passive waiter to the queue
		// head, linking it in front of the current successor.
		id := l.passive[len(l.passive)-1]
		l.passive = l.passive[:len(l.passive)-1]
		pn := l.node(id)
		p.Store(pn.next, succ)
		l.grant(p, id)
		return
	}
	if succ == 0 {
		if len(l.passive) > 0 {
			// Re-insert one passive waiter as the new queue head if the
			// queue is still empty.
			id := l.passive[len(l.passive)-1]
			pn := l.node(id)
			p.Store(pn.next, 0)
			if p.CAS(l.tail, enc(p.ID()), enc(id)) == enc(p.ID()) {
				l.passive = l.passive[:len(l.passive)-1]
				l.grant(p, id)
				return
			}
			// Someone enqueued behind us meanwhile; fall through.
		}
		if p.CAS(l.tail, enc(p.ID()), 0) == enc(p.ID()) {
			return
		}
		p.SpinOn(func() bool { return qn.next.V() == 0 }, qn.next)
		succ = p.Load(qn.next)
	}
	// Cull the second waiter in line (keeping the active queue minimal
	// while preserving FIFO service of the head), then grant the head.
	n1 := l.node(dec(succ))
	n1next := p.Load(n1.next)
	if n1next != 0 {
		n2 := l.node(dec(n1next))
		n2next := p.Load(n2.next)
		culled := false
		if n2next != 0 {
			// Splice n2 out of the middle of the queue.
			p.Store(n1.next, n2next)
			culled = true
		} else if p.CAS(l.tail, n1next, succ) == n1next {
			// n2 was the tail: detach it and make the head the new tail.
			p.Store(n1.next, 0)
			culled = true
		}
		if culled {
			p.Store(n2.next, 0)
			//flexlint:allow hotalloc culled-waiter list bounded by the thread count; capacity is reused
			l.passive = append(l.passive, dec(n1next))
			if p.Xchg(n2.locked, mCulled) == mParked {
				// Active waiters do not park, but be safe.
				p.FutexWake(n2.locked, 1)
			}
		}
	}
	l.grant(p, dec(succ))
}
