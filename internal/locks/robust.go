package locks

import (
	"fmt"

	"repro/internal/sim"
)

// This file models the kernel's robust-futex machinery for the
// simulator. Robust locks register themselves at construction and a
// machine kill hook walks the registered locks when a thread dies,
// flags owner-died state on the lock word, repairs waiter queues, and
// wakes a successor. A real kernel finds the held words through the
// per-thread user-space robust list; the registry reaches the same
// words through the lock instances instead, which skips modeling the
// list writes but preserves the semantics that matter: ownership is
// decided solely by what the dead thread published to shared memory
// before it crashed, and every repair is a kernel-side action that
// costs the dead thread nothing.

// robustLock is the interface a lock registers with the registry.
type robustLock interface {
	Lock
	// threadDied runs in kernel context after `dead` crashed; the lock
	// repairs whatever state the dead thread left mid-protocol.
	threadDied(reg *RobustRegistry, dead *sim.Thread)
}

// RobustRegistry is the per-machine robust-futex registry.
type RobustRegistry struct {
	m     *sim.Machine
	locks []robustLock

	// abandons, when set, aggregates dead-waiter unlinks into the
	// machine-wide Shared.Abandons counter.
	abandons *int64

	// Diagnostics, readable after the run.
	OwnerDeaths int64 // owner-died flags set by the kernel walk
	Unlinks     int64 // dead waiter nodes marked/unlinked by the walk
}

// NewRobustRegistry creates a registry for m and installs its kill
// hook. The walk visits locks in construction order, which is part of
// the deterministic-replay contract.
func NewRobustRegistry(m *sim.Machine) *RobustRegistry {
	r := &RobustRegistry{m: m}
	m.RegisterKillHook(func(dead *sim.Thread) {
		for _, l := range r.locks {
			l.threadDied(r, dead)
		}
	})
	return r
}

func (r *RobustRegistry) register(l robustLock) { r.locks = append(r.locks, l) }

// RobustBlocking word layout: 0 is free; otherwise the low bits hold
// the encoded owner tid, rbWaiters marks parked waiters, and
// rbOwnerDied is the kernel's owner-died flag (FUTEX_OWNER_DIED). The
// tid-in-word encoding is what makes recovery possible at all — the
// kernel can test ownership from word content alone.
const (
	rbWaiters   = uint64(1) << 62
	rbOwnerDied = uint64(1) << 63
	rbOwnerMask = rbWaiters - 1
)

// RobustBlocking is the blocking (futex) lock rebuilt on robust-futex
// conventions: acquiring a word that carries rbOwnerDied is the
// EOWNERDEAD path — the claimer emits TraceRecover and proceeds with
// the lock, exactly like pthread_mutex_lock returning EOWNERDEAD
// followed by pthread_mutex_consistent.
type RobustBlocking struct {
	m   *sim.Machine
	v   *sim.Word
	lid int32
}

// NewRobustBlocking returns a robust blocking lock. A nil registry
// builds the lock without kernel recovery (the no-recovery mutant the
// crash self-test uses): a crashed owner then orphans the lock.
func NewRobustBlocking(m *sim.Machine, reg *RobustRegistry, name string) *RobustBlocking {
	l := &RobustBlocking{v: m.NewWord(name+".rblk", 0), m: m, lid: m.RegisterLockName(name)}
	if reg != nil {
		reg.register(l)
	}
	return l
}

// Lock implements Lock.
func (l *RobustBlocking) Lock(p *sim.Proc) {
	// mine is the word installed on acquisition. Unlock's XCHG clears the
	// waiters bit, so a thread woken from the futex cannot know whether
	// other waiters remain parked — it must re-acquire with the waiters
	// bit set (glibc's FUTEX_WAITERS discipline) so its own unlock wakes
	// them. An unneeded wake costs a futile syscall; a skipped one
	// strands a waiter on a free word forever.
	mine := enc(p.ID())
	for {
		v := p.Load(l.v)
		switch {
		case v == 0:
			if p.CAS(l.v, 0, mine) == 0 {
				p.LockEvent(sim.TraceAcquire, l.lid)
				return
			}
		case v&rbOwnerDied != 0:
			// EOWNERDEAD: claim the dead owner's lock, preserving the
			// waiters bit so our own unlock still wakes them.
			if p.CAS(l.v, v, mine|(v&rbWaiters)) == v {
				p.LockEvent(sim.TraceRecover, l.lid)
				p.LockEvent(sim.TraceAcquire, l.lid)
				return
			}
		default:
			if v&rbWaiters == 0 {
				if p.CAS(l.v, v, v|rbWaiters) != v {
					continue
				}
				v |= rbWaiters
			}
			p.LockEvent(sim.TraceLockBlock, l.lid)
			p.FutexWait(l.v, v)
			mine = enc(p.ID()) | rbWaiters
		}
	}
}

// Unlock implements Lock.
func (l *RobustBlocking) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.lid)
	if p.Xchg(l.v, 0)&rbWaiters != 0 {
		if p.FutexWake(l.v, 1) > 0 {
			p.LockEvent(sim.TraceLockWake, l.lid)
		}
	}
}

// threadDied implements robustLock: if the dead thread owns the word,
// flag it owner-died and wake one waiter to run the EOWNERDEAD path.
// Kernel context — free peeks and kernel stores, not Proc ops.
func (l *RobustBlocking) threadDied(reg *RobustRegistry, dead *sim.Thread) {
	v := l.v.V()
	if v&rbOwnerMask != enc(dead.ID()) || v&rbOwnerDied != 0 {
		return
	}
	reg.OwnerDeaths++
	l.m.KernelStore(l.v, rbOwnerDied|(v&rbWaiters))
	l.m.KernelLockEvent(sim.TraceOwnerDead, l.lid, int32(dead.ID()), -1)
	if v&rbWaiters != 0 {
		l.m.KernelFutexWake(l.v, 1, int32(dead.ID()))
	}
}

// Robust MCS node status values. rmDead generalizes MCS-TP's tpRemoved:
// a node the kernel marked dead in place, which the holder's handover
// walk skips over (queue repair).
const (
	rmGranted = uint64(0)
	rmWaiting = uint64(1)
	rmDead    = uint64(2)
)

// RobustMCS label regions. The kernel walk needs to know *where* in the
// enqueue protocol a corpse died, because a waiter's queue presence is
// published in two steps (tail XCHG, then the predecessor link store)
// and a crash between them leaves the chain broken in a way only the
// dead thread's register can repair. Values are offset well past the
// FlexGuard regions (internal/core) so a machine running both families
// never has one family's classifier misread the other's labels.
const (
	// regRMEnqueue spans from just before the tail XCHG through the
	// predecessor link store: Reg holds the XCHG result — 0 means the
	// thread took the lock from an empty queue; nonzero names the
	// predecessor whose .next the (possibly unpublished) link store
	// targets.
	regRMEnqueue sim.Region = 0x40 + iota
	// regRMQueued: fully linked in the queue, spinning on the status
	// word.
	regRMQueued
)

type rmNode struct {
	next   *sim.Word // encoded successor id; 0 = none
	status *sim.Word // rmWaiting / rmGranted / rmDead
}

// RobustMCS is an MCS queue lock with kernel-assisted queue repair: a
// waiter that dies anywhere in the enqueue protocol — even between the
// tail XCHG and the predecessor link store, where the queue chain is
// briefly broken — is repaired and marked rmDead by the kill-hook walk,
// and the holder's handover walk skips dead nodes the way MCS-TP skips
// timed-out ones. In-CS holder death is not recovered (the queue has no
// tid-in-word ownership to test against CS state), so a crashed holder
// deterministically orphans the lock — the checker's orphaned-lock
// verdict, not a hang; the one holder window the kernel can prove from
// register state alone (death at the XCHG that won an empty queue) is
// recovered by resetting the tail when no successor has enqueued.
type RobustMCS struct {
	m     *sim.Machine
	name  string
	tail  *sim.Word
	nodes map[int]*rmNode
	lid   int32
}

// NewRobustMCS returns a robust MCS lock (nil registry = no repair).
func NewRobustMCS(m *sim.Machine, reg *RobustRegistry, name string) *RobustMCS {
	l := &RobustMCS{
		m:     m,
		name:  name,
		tail:  m.NewWord(name+".tail", 0),
		nodes: make(map[int]*rmNode),
		lid:   m.RegisterLockName(name),
	}
	if reg != nil {
		reg.register(l)
	}
	return l
}

// node returns (allocating on first use) thread id's queue node.
//
//flexlint:coldpath
func (l *RobustMCS) node(id int) *rmNode {
	n := l.nodes[id]
	if n == nil {
		n = &rmNode{
			next:   l.m.NewWord(fmt.Sprintf("%s.n%d.next", l.name, id), 0),
			status: l.m.NewWord(fmt.Sprintf("%s.n%d.status", l.name, id), rmGranted),
		}
		l.nodes[id] = n
	}
	return n
}

// Lock implements Lock. The status word is rmWaiting exactly while the
// node is (or is about to be) linked in the queue, and the label
// regions bracket the two-step enqueue publication, which together are
// the tests the kernel walk uses; the empty-queue holder clears the
// status immediately so an in-CS holder crash is never mistaken for a
// waiter crash.
func (l *RobustMCS) Lock(p *sim.Proc) {
	qn := l.node(p.ID())
	p.Store(qn.next, 0)
	p.Store(qn.status, rmWaiting)
	p.SetRegion(regRMEnqueue)
	pred := p.Xchg(l.tail, enc(p.ID()))
	if pred == 0 {
		p.Store(qn.status, rmGranted)
		p.SetRegion(sim.RegionNone)
		p.LockEvent(sim.TraceAcquire, l.lid)
		return
	}
	p.Store(l.node(dec(pred)).next, enc(p.ID()))
	p.SetRegion(regRMQueued)
	p.LockEvent(sim.TraceSpinStart, l.lid)
	p.SpinOn(func() bool { return qn.status.V() == rmWaiting }, qn.status)
	p.SetRegion(sim.RegionNone)
	p.LockEvent(sim.TraceAcquire, l.lid)
}

// Unlock implements Lock: grant the successor, skipping any node the
// kernel marked dead (the robust generalization of MCS-TP's
// tpRemoved walk).
func (l *RobustMCS) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.lid)
	cur := enc(p.ID())
	n := l.node(p.ID())
	for {
		nxt := p.Load(n.next)
		if nxt == 0 {
			if p.CAS(l.tail, cur, 0) == cur {
				return
			}
			p.SpinOn(func() bool { return n.next.V() == 0 }, n.next)
			nxt = p.Load(n.next)
		}
		sn := l.node(dec(nxt))
		// Grant-and-read in one atomic: if the successor died after we
		// loaded the link, the kernel already marked it and we see
		// rmDead here instead of granting a corpse.
		if p.Xchg(sn.status, rmGranted) != rmDead {
			p.LockEventArg(sim.TraceHandover, l.lid, int32(dec(nxt)))
			return
		}
		// Dead successor: adopt its node and keep walking.
		n, cur = sn, nxt
	}
}

// threadDied implements robustLock. A corpse whose node status is
// rmWaiting died somewhere in this lock's enqueue protocol; the label
// region and register — exactly the state a kernel could see — decide
// which of the protocol's windows it died in and what repair keeps the
// queue walkable:
//
//   - before the tail XCHG (no enqueue region): the node never entered
//     the queue. Nothing to repair, and nothing to count — the corpse
//     never announced itself to any other thread.
//   - between the XCHG and the predecessor link store (regRMEnqueue,
//     Reg != 0): the chain is broken — tail reached the dead node but
//     the predecessor's .next may never name it, so the holder's
//     link-wait in Unlock would spin forever. The kernel publishes the
//     link from the dead thread's register (idempotent when the store
//     already landed), then marks the node dead as usual.
//   - at the XCHG of an empty queue (regRMEnqueue, Reg == 0): the
//     corpse *owned* the lock at the instant of death. If the queue is
//     still empty behind it the kernel resets tail and the lock
//     recovers completely; otherwise the successors are stranded — the
//     deterministic orphaned-lock shape, attributed via TraceOwnerDead.
//   - linked and spinning (regRMQueued): mark the node dead so the
//     holder's handover walk skips it.
//
// Kernel context — free peeks and kernel stores, not Proc ops.
func (l *RobustMCS) threadDied(reg *RobustRegistry, dead *sim.Thread) {
	qn := l.nodes[dead.ID()]
	if qn == nil {
		return
	}
	if qn.status.V() != rmWaiting {
		return
	}
	switch dead.Region {
	case regRMEnqueue:
		if dead.Reg == 0 {
			// Empty-queue winner: a holder crash, not a waiter crash.
			reg.OwnerDeaths++
			l.m.KernelLockEvent(sim.TraceOwnerDead, l.lid, int32(dead.ID()), -1)
			if l.tail.V() == enc(dead.ID()) {
				l.m.KernelStore(l.tail, 0)
			}
			return
		}
		// Publish the possibly-missing predecessor link, then fall
		// through to the dead-waiter marking below.
		l.m.KernelStore(l.nodes[dec(dead.Reg)].next, enc(dead.ID()))
	case regRMQueued:
		// Linked and spinning: the walk below is all that is needed.
	default:
		// Announced (status stored) but died before the tail XCHG: the
		// node is reachable from nowhere — nothing to repair or count.
		return
	}
	reg.Unlinks++
	if reg.abandons != nil {
		*reg.abandons++
	}
	l.m.KernelStore(qn.status, rmDead)
	l.m.KernelLockEvent(sim.TraceAbandon, l.lid, int32(dead.ID()), int32(dead.ID()))
}
