package locks

import "repro/internal/sim"

// mcsNode is one waiter's queue node (one per thread per lock — the memory
// behavior the paper contrasts with the Shuffle lock's global node).
type mcsNode struct {
	next   *sim.Word // encoded successor id; 0 = none
	locked *sim.Word // 1 while the owner must wait
}

// MCS is the Mellor-Crummey & Scott queue spinlock (§2.1.2): waiters form
// a linked list and each spins on its own node, so handover touches only
// two cache lines.
type MCS struct {
	m     *sim.Machine
	tail  *sim.Word
	nodes map[int]*mcsNode // allocated with the first node
	lid   int32
}

// NewMCS returns an MCS lock.
func NewMCS(m *sim.Machine, name string) *MCS {
	lid := m.RegisterLockName(name)
	return &MCS{m: m, tail: m.NewLockWord(lid, ".tail", 0), lid: lid}
}

// node returns (allocating on first use) thread id's queue node.
//
//flexlint:coldpath
func (l *MCS) node(id int) *mcsNode {
	n := l.nodes[id]
	if n == nil {
		if l.nodes == nil {
			l.nodes = make(map[int]*mcsNode)
		}
		n = &mcsNode{
			next:   l.m.NewLockWordAt(l.lid, ".n", id, ".next", 0),
			locked: l.m.NewLockWordAt(l.lid, ".n", id, ".locked", 0),
		}
		l.nodes[id] = n
	}
	return n
}

// Lock implements Lock.
func (l *MCS) Lock(p *sim.Proc) {
	qn := l.node(p.ID())
	p.Store(qn.next, 0)
	p.Store(qn.locked, 1)
	pred := p.Xchg(l.tail, enc(p.ID()))
	if pred == 0 {
		p.LockEvent(sim.TraceAcquire, l.lid)
		return
	}
	p.Store(l.node(dec(pred)).next, enc(p.ID()))
	p.LockEvent(sim.TraceSpinStart, l.lid)
	p.SpinOn(func() bool { return qn.locked.V() == 1 }, qn.locked)
	p.LockEvent(sim.TraceAcquire, l.lid)
}

// Unlock implements Lock.
func (l *MCS) Unlock(p *sim.Proc) {
	qn := l.node(p.ID())
	p.LockEvent(sim.TraceRelease, l.lid)
	if p.Load(qn.next) == 0 {
		if p.CAS(l.tail, enc(p.ID()), 0) == enc(p.ID()) {
			return
		}
		p.SpinOn(func() bool { return qn.next.V() == 0 }, qn.next)
	}
	succ := dec(p.Load(qn.next))
	p.LockEventArg(sim.TraceHandover, l.lid, int32(succ))
	p.Store(l.node(succ).locked, 0)
}

// clhNode is a CLH queue node; nodes migrate between threads at release.
type clhNode struct {
	succMustWait *sim.Word
}

// CLH is the Craig / Landin-Hagersten queue spinlock (§2.1.2): an implicit
// queue where each waiter spins on its predecessor's node.
type CLH struct {
	m    *sim.Machine
	lid  int32
	tail *sim.Word // encoded node index + 1
	// nodes is the node pool; mine maps a thread to the node it will
	// enqueue next (nodes rotate thread→thread at release, as in CLH);
	// adopt maps a holder to the predecessor node it takes over at unlock.
	// Both are indexed by thread id (-1 = no node yet) and only mutated
	// by their owning thread / the holder.
	nodes []*clhNode
	mine  []int
	adopt []int
}

// NewCLH returns a CLH lock.
func NewCLH(m *sim.Machine, name string) *CLH {
	l := &CLH{m: m, lid: m.RegisterLockName(name)}
	// Node 0 is the initial dummy (released).
	l.nodes = []*clhNode{{succMustWait: m.NewLockWordAt(l.lid, ".clh", 0, "", 0)}}
	l.tail = m.NewLockWord(l.lid, ".tail", 1) // points at the dummy
	return l
}

// slot grows the per-thread tables to cover id (first acquisition).
//
//flexlint:coldpath
func (l *CLH) slot(id int) {
	for id >= len(l.mine) {
		l.mine = append(l.mine, -1)
		l.adopt = append(l.adopt, -1)
	}
}

// newNode grows the node pool by one (first acquisition per thread).
//
//flexlint:coldpath
func (l *CLH) newNode() int {
	idx := len(l.nodes)
	l.nodes = append(l.nodes, &clhNode{
		succMustWait: l.m.NewLockWordAt(l.lid, ".clh", idx, "", 0),
	})
	return idx
}

// Lock implements Lock.
func (l *CLH) Lock(p *sim.Proc) {
	id := p.ID()
	l.slot(id)
	my := l.mine[id]
	if my < 0 {
		my = l.newNode()
		l.mine[id] = my
	}
	p.Store(l.nodes[my].succMustWait, 1)
	predEnc := p.Xchg(l.tail, uint64(my+1))
	pred := int(predEnc - 1)
	predWord := l.nodes[pred].succMustWait
	if p.Load(predWord) == 1 {
		p.LockEvent(sim.TraceSpinStart, l.lid)
		p.SpinOn(func() bool { return predWord.V() == 1 }, predWord)
	}
	p.LockEvent(sim.TraceAcquire, l.lid)
	// Adopt the predecessor's node for the next acquisition.
	l.adopt[id] = pred
}

// Unlock implements Lock.
func (l *CLH) Unlock(p *sim.Proc) {
	id := p.ID()
	my := l.mine[id]
	p.LockEvent(sim.TraceRelease, l.lid)
	p.Store(l.nodes[my].succMustWait, 0)
	l.mine[id] = l.adopt[id]
}
