package locks

import "repro/internal/sim"

// Shuffle-lock waiter states (node.waiting) and top-lock states.
const (
	shReleased = 0
	shSpinning = 1
	shParked   = 2

	topFree       = 0
	topHeld       = 1
	topHeldParked = 2 // held, and the head waiter blocked on the top futex
)

// shuffleSpin is the node waiters' spin-then-park budget (~10 context
// switches, LiTL-scale). A budget near one context switch makes nearly
// every queue handover pay a futex wake inside the lock hold, serializing
// workloads with long think times — exactly the heuristic-tuning fragility
// the paper attributes to spin-then-park designs (§2.2).
const shuffleSpin = sim.Time(30_000)

// shuffleNode is a thread's global queue node, shared across all Shuffle
// locks (one node per thread total, like FlexGuard — the property that
// makes both immune to Dedup's high lock counts, §5.3).
type shuffleNode struct {
	waiting *sim.Word
	next    *sim.Word
}

// shuffleNode returns (allocating on first use) thread id's node.
//
//flexlint:coldpath
func (s *Shared) shuffleNode(id int) *shuffleNode {
	n := s.shuffleNodes[id]
	if n == nil {
		n = &shuffleNode{
			waiting: s.m.NewWordAt("shfl.n", id, ".waiting", 0),
			next:    s.m.NewWordAt("shfl.n", id, ".next", 0),
		}
		s.shuffleNodes[id] = n
	}
	return n
}

// Shuffle is the spin-then-park variant of the Shuffle lock (§2.1.2,
// §2.2): an MCS queue feeding a TATAS top lock, with a fast path that
// skips the queue when it is empty, and a single global queue node per
// thread. Waiters spin for roughly a context-switch time, then park.
//
// The NUMA-aware queue reshuffling of the original is omitted: the
// simulator models a flat machine, and the oversubscription behaviour
// under study does not depend on it (see DESIGN.md).
type Shuffle struct {
	s    *Shared
	top  *sim.Word
	tail *sim.Word
	lid  int32
}

// NewShuffle returns a Shuffle lock.
func NewShuffle(s *Shared, name string) *Shuffle {
	lid := s.m.RegisterLockName(name)
	return &Shuffle{
		s:    s,
		top:  s.m.NewLockWord(lid, ".top", topFree),
		tail: s.m.NewLockWord(lid, ".tail", 0),
		lid:  lid,
	}
}

// Lock implements Lock.
func (l *Shuffle) Lock(p *sim.Proc) {
	// Fast path: steal the top lock without touching the queue.
	if p.Load(l.top) == topFree && p.CAS(l.top, topFree, topHeld) == topFree {
		p.LockEvent(sim.TraceAcquire, l.lid)
		return
	}
	qn := l.s.shuffleNode(p.ID())
	p.Store(qn.next, 0)
	p.Store(qn.waiting, shSpinning)
	pred := p.Xchg(l.tail, enc(p.ID()))
	if pred != 0 {
		p.Store(l.s.shuffleNode(dec(pred)).next, enc(p.ID()))
		l.waitAtNode(p, qn)
	}
	// Head of the queue: acquire the top lock (spin-then-park), then
	// release the MCS lock so the next waiter becomes the head.
	l.acquireTop(p)
	p.LockEvent(sim.TraceAcquire, l.lid)
	l.mcsPass(p, qn)
}

// waitAtNode spin-then-parks until the predecessor hands the queue head
// over.
func (l *Shuffle) waitAtNode(p *sim.Proc, qn *shuffleNode) {
	for {
		p.LockEvent(sim.TraceSpinStart, l.lid)
		if p.SpinOnMax(func() bool { return qn.waiting.V() == shSpinning }, shuffleSpin, qn.waiting) {
			if p.Load(qn.waiting) == shReleased {
				return
			}
			continue
		}
		if p.CAS(qn.waiting, shSpinning, shParked) == shSpinning {
			p.LockEvent(sim.TraceLockBlock, l.lid)
			p.FutexWait(qn.waiting, shParked)
		}
		if p.Load(qn.waiting) == shReleased {
			return
		}
	}
}

// acquireTop obtains the TATAS top lock. Only the queue head reaches this
// point, and — as in the shuffle lock's design — it busy-waits on the TAS
// word without parking (parking is the *node* waiters' job). The CAS is
// issued directly when the lock is observed free (no guarding load), so
// the head waiter's request is already in flight when the previous holder
// tries to re-acquire — the same property that lets a real spinner's RFO
// win the race against the unlocker. A preempted head therefore stalls
// the whole queue: the weakness that makes the spin-then-park Shuffle
// lock trail the pure blocking lock under oversubscription (§2.2).
func (l *Shuffle) acquireTop(p *sim.Proc) {
	for {
		if p.CAS(l.top, topFree, topHeld) == topFree {
			return
		}
		p.LockEvent(sim.TraceSpinStart, l.lid)
		p.SpinOn(func() bool { return l.top.V() != topFree }, l.top)
	}
}

// mcsPass releases the MCS lock to the successor after the top lock has
// been acquired.
func (l *Shuffle) mcsPass(p *sim.Proc, qn *shuffleNode) {
	if p.Load(qn.next) == 0 {
		if p.CAS(l.tail, enc(p.ID()), 0) == enc(p.ID()) {
			return
		}
		p.SpinOn(func() bool { return qn.next.V() == 0 }, qn.next)
	}
	succ := dec(p.Load(qn.next))
	next := l.s.shuffleNode(succ)
	p.LockEventArg(sim.TraceHandover, l.lid, int32(succ))
	if p.Xchg(next.waiting, shReleased) == shParked {
		p.FutexWake(next.waiting, 1)
		p.LockEvent(sim.TraceLockWake, l.lid)
	}
}

// Unlock implements Lock.
func (l *Shuffle) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.lid)
	p.Store(l.top, topFree)
}
