// Package core implements the FlexGuard lock algorithm (paper §3.2,
// Listing 2) and its integration with the Preemption Monitor (§3.2.2):
// a hybrid lock that busy-waits through an MCS queue plus a single-variable
// lock while no critical section is preempted, and switches every waiter to
// futex blocking the instant the monitor reports a preempted critical
// section (num_preempted_cs > 0).
package core

import (
	"fmt"

	"repro/internal/monitor"
	"repro/internal/sim"
)

// Lock-value states of the single-variable lock (Listing 2 lines 1–4).
const (
	Unlocked = 0
	Locked   = 1
	// LockedWithBlockedWaiters: at least one thread is blocking; the
	// holder must futex_wake when releasing.
	LockedWithBlockedWaiters = 2
	// OwnerDied: the kernel's robust walk found the holder dead
	// (FUTEX_OWNER_DIED). The next acquirer claims the lock on the
	// EOWNERDEAD path. Crash-free runs never see this value.
	OwnerDied = 3
)

// Label regions of the FlexGuard lock and unlock functions. These are the
// simulator analogues of the assembly labels (at_xchg, at_break, at_store,
// lock$end …) that the Preemption Monitor compares the preemption address
// against. Regions marked "conditional" additionally require a register
// check (Thread.Reg — the RCX idiom) to decide whether the lock was
// acquired by the interrupted atomic.
const (
	// regFastCAS: the fast-path CAS window; in CS iff Reg == Unlocked.
	regFastCAS sim.Region = iota + 1
	// regTailXchg: the MCS tail XCHG window; the thread became the MCS
	// holder iff the prior tail was nil (Reg == 0).
	regTailXchg
	// regP1Spin: busy-waiting in the Phase-1 MCS queue. The thread is the
	// MCS holder (hence in CS) iff its qnode.waiting has been cleared by
	// its predecessor — checked from the handler by reading user memory,
	// as the eBPF program can.
	regP1Spin
	// regMCSHolder: the thread holds the MCS lock (unconditionally in CS,
	// per §3.2.2's next-waiter-preemption handling).
	regMCSHolder
	// regP2CAS: Phase-2 CAS window of a non-MCS-holder; in CS iff
	// Reg == Unlocked.
	regP2CAS
	// regP2Swap: the XCHG(&lock.val, LOCKED_WITH_BLOCKED_WAITERS) window;
	// the swap acquired the lock iff Reg == Unlocked.
	regP2Swap
	// regAcquired: post-acquisition code up to cs_counter++ (the
	// at_break..lock$end address range); unconditionally in CS.
	regAcquired
	// regUnlock: unlock() entry up to the release XCHG (the
	// unlock..at_store range); unconditionally in CS.
	regUnlock
	// regClaim: the EOWNERDEAD claim CAS window (appended after the
	// original regions so existing values are unchanged); in CS iff
	// Reg == OwnerDied (the CAS took over the dead owner's lock).
	regClaim
)

// QNode is a thread's global MCS queue node. As in the Shuffle lock, each
// thread owns exactly one node shared across all FlexGuard locks, since a
// thread releases the MCS lock before entering the critical section and
// thus never waits in two queues at once (§2.1.2, §3.2.1).
type QNode struct {
	next    *sim.Word // encoded successor thread id + 1; 0 = none
	waiting *sim.Word // 1 while waiting in the queue
}

// Runtime is the per-machine FlexGuard state: the per-thread queue nodes
// and the classifier registration with the Preemption Monitor.
type Runtime struct {
	m     *sim.Machine
	mon   *monitor.Monitor
	nodes []*QNode

	// engaged is the per-thread stack of FlexGuard locks the thread is
	// currently inside (pushed at Lock entry, popped at the end of
	// Unlock). It is the simulator analogue of the robust-futex list:
	// plain Go bookkeeping, read only by the kernel kill hook, so it
	// costs crash-free runs nothing.
	engaged [][]*FlexGuard

	// Diagnostics, readable after the run.
	OwnerDeaths int64 // locks flagged OwnerDied by the kill hook
	Recoveries  int64 // EOWNERDEAD claims by surviving waiters
}

// NewRuntime builds the FlexGuard runtime for machine m using the given
// Preemption Monitor, and registers the lock-family classifier that maps
// label regions and register values to "in critical section".
func NewRuntime(m *sim.Machine, mon *monitor.Monitor) *Runtime {
	rt := &Runtime{
		m:       m,
		mon:     mon,
		nodes:   make([]*QNode, m.Config().MaxThreads),
		engaged: make([][]*FlexGuard, m.Config().MaxThreads),
	}
	m.RegisterKillHook(rt.threadDied)
	mon.SetClassifier(rt.classify)
	return rt
}

// node returns (allocating on first use) thread id's global queue node.
//
//flexlint:coldpath
func (rt *Runtime) node(id int) *QNode {
	if id >= len(rt.nodes) {
		panic(fmt.Sprintf("core: thread id %d exceeds MaxThreads %d", id, len(rt.nodes)))
	}
	n := rt.nodes[id]
	if n == nil {
		n = &QNode{
			next:    rt.m.NewWordAt("qnode", id, ".next", 0),
			waiting: rt.m.NewWordAt("qnode", id, ".waiting", 0),
		}
		rt.nodes[id] = n
	}
	return n
}

// classify implements the monitor.Classifier for the FlexGuard lock
// family: the sched_switch-time decision of Listing 1 generalized to the
// regions of Listing 2.
func (rt *Runtime) classify(t *sim.Thread) (bool, *sim.Word, bool) {
	switch t.Region {
	case regMCSHolder, regAcquired, regUnlock:
		return true, t.MonitorHint, false
	case regFastCAS, regP2CAS:
		return t.Reg == Unlocked, t.MonitorHint, false
	case regP2Swap:
		// The swap acquired the lock if the previous value was Unlocked
		// — or OwnerDied, the crash-only takeover of a dead owner.
		return t.Reg == Unlocked || t.Reg == OwnerDied, t.MonitorHint, false
	case regClaim:
		return t.Reg == OwnerDied, t.MonitorHint, false
	case regTailXchg:
		return t.Reg == 0, t.MonitorHint, false
	case regP1Spin:
		// The predecessor may hand the MCS lock over at any time, also
		// while this thread is off-CPU (next-waiter preemption, §3.2.2):
		// it is the MCS holder iff its waiting flag has been cleared, and
		// the monitor re-reads the flag at later switches.
		n := rt.nodes[t.ID()]
		return n != nil && n.waiting.V() == 0, t.MonitorHint, true
	}
	return false, nil, false
}
