package locks

import "repro/internal/sim"

// MCS-TP waiter states.
const (
	tpWaiting = 1
	tpGranted = 0
	tpRemoved = 2
)

// Tunables for the time-published heuristics (the paper's point is exactly
// that these are heuristics: they come from LiTL-style defaults scaled to
// the simulator's tick calibration).
const (
	tpPubPeriod   = sim.Time(5_000)  // waiter timestamp publication period
	tpStaleWaiter = sim.Time(15_000) // holder considers a waiter dead after this
	tpStaleHolder = sim.Time(50_000) // waiters yield if the holder looks preempted
)

// tpNode is an MCS-TP queue node (one per thread per lock).
type tpNode struct {
	status *sim.Word
	next   *sim.Word
	time   *sim.Word // last-published timestamp of the waiter
}

// MCSTP is the time-published MCS lock of He, Scherer & Scott (§2.2):
// waiters publish timestamps while spinning; the releasing holder passes
// the lock to the first waiter with a fresh timestamp and aborts the
// acquisitions of apparently-preempted waiters; waiters that observe a
// stale holder timestamp yield to help the holder get rescheduled.
type MCSTP struct {
	m          *sim.Machine
	tail       *sim.Word
	holderTime *sim.Word       // holder-published acquisition timestamp (0 = free)
	nodes      map[int]*tpNode // allocated with the first node
	lid        int32

	// abandons counts holder-side waiter removals (tpRemoved) into
	// Shared.Abandons. holderYields counts waiter yields taken on a
	// stale holder timestamp. Both are plain Go bookkeeping outside the
	// simulated ops, so the counters never perturb traces.
	abandons     *int64
	holderYields int64
}

// NewMCSTP returns an MCS-TP lock on s's machine, counting its waiter
// removals into s.Abandons.
func NewMCSTP(s *Shared, name string) *MCSTP {
	m := s.m
	lid := m.RegisterLockName(name)
	return &MCSTP{
		m:          m,
		tail:       m.NewLockWord(lid, ".tail", 0),
		holderTime: m.NewLockWord(lid, ".htime", 0),
		lid:        lid,
		abandons:   &s.Abandons,
	}
}

// node returns (allocating on first use) thread id's queue node.
//
//flexlint:coldpath
func (l *MCSTP) node(id int) *tpNode {
	n := l.nodes[id]
	if n == nil {
		if l.nodes == nil {
			l.nodes = make(map[int]*tpNode)
		}
		n = &tpNode{
			status: l.m.NewLockWordAt(l.lid, ".n", id, ".status", 0),
			next:   l.m.NewLockWordAt(l.lid, ".n", id, ".next", 0),
			time:   l.m.NewLockWordAt(l.lid, ".n", id, ".time", 0),
		}
		l.nodes[id] = n
	}
	return n
}

// Lock implements Lock.
func (l *MCSTP) Lock(p *sim.Proc) {
	qn := l.node(p.ID())
	for {
		p.Store(qn.next, 0)
		p.Store(qn.time, uint64(p.Now()))
		p.Store(qn.status, tpWaiting)
		pred := p.Xchg(l.tail, enc(p.ID()))
		if pred == 0 {
			p.Store(l.holderTime, uint64(p.Now()))
			p.LockEvent(sim.TraceAcquire, l.lid)
			return
		}
		p.Store(l.node(dec(pred)).next, enc(p.ID()))
		if l.waitGranted(p, qn) {
			p.Store(l.holderTime, uint64(p.Now()))
			p.LockEvent(sim.TraceAcquire, l.lid)
			return
		}
		// Removed by a releasing holder that judged us preempted: re-enter
		// the queue from scratch.
	}
}

// waitGranted spins with periodic timestamp publication until granted
// (true) or removed (false).
func (l *MCSTP) waitGranted(p *sim.Proc, qn *tpNode) bool {
	for {
		p.LockEvent(sim.TraceSpinStart, l.lid)
		p.SpinOnMax(func() bool { return qn.status.V() == tpWaiting }, tpPubPeriod, qn.status)
		switch p.Load(qn.status) {
		case tpGranted:
			return true
		case tpRemoved:
			return false
		}
		// Still waiting: publish liveness.
		p.Store(qn.time, uint64(p.Now()))
		// Heuristic holder-preemption detection: a stale holder timestamp
		// suggests the lock holder is off-CPU — yield to create an
		// opportunity for it to be rescheduled.
		if ht := p.Load(l.holderTime); ht != 0 && p.Now()-sim.Time(ht) > tpStaleHolder {
			l.holderYields++
			p.Yield()
		}
	}
}

// Unlock implements Lock.
func (l *MCSTP) Unlock(p *sim.Proc) {
	qn := l.node(p.ID())
	p.LockEvent(sim.TraceRelease, l.lid)
	p.Store(l.holderTime, 0)
	cur := p.Load(qn.next)
	if cur == 0 {
		if p.CAS(l.tail, enc(p.ID()), 0) == enc(p.ID()) {
			return
		}
		p.SpinOn(func() bool { return qn.next.V() == 0 }, qn.next)
		cur = p.Load(qn.next)
	}
	for {
		n := l.node(dec(cur))
		if p.Now()-sim.Time(p.Load(n.time)) <= tpStaleWaiter {
			p.LockEventArg(sim.TraceHandover, l.lid, int32(dec(cur)))
			p.Store(n.status, tpGranted)
			return
		}
		// The waiter looks preempted: abort its acquisition and move on.
		nxt := p.Load(n.next)
		if nxt == 0 {
			// It is the queue tail: try to close the queue entirely.
			if p.CAS(l.tail, cur, 0) == cur {
				p.Store(n.status, tpRemoved)
				*l.abandons++
				return
			}
			p.SpinOn(func() bool { return n.next.V() == 0 }, n.next)
			nxt = p.Load(n.next)
		}
		p.Store(n.status, tpRemoved)
		*l.abandons++
		cur = nxt
	}
}
