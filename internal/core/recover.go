package core

import "repro/internal/sim"

// Robust recovery for FlexGuard. The runtime plays both sides of the
// robust-futex contract: the engaged stack (pushed/popped around the
// lock protocol) stands in for the user-space robust list, and the
// kill hook stands in for the kernel walk that flags FUTEX_OWNER_DIED
// on the words a dead thread owned. A dead holder is otherwise just a
// preempted-forever holder to FlexGuard: the Preemption Monitor counts
// its critical section preempted at the kill switch and never counts it
// back down, so every waiter — spinners included — escalates to
// blocking mode, drains the MCS queue out of order (§3.2.3), and meets
// the OwnerDied word on the futex path, where the claim is handled.

// enter records that thread id is inside l's lock protocol.
func (rt *Runtime) enter(id int, l *FlexGuard) {
	//flexlint:allow hotalloc engaged-stack push; capacity is reused once nesting depth has been seen
	rt.engaged[id] = append(rt.engaged[id], l)
}

// exit removes l from thread id's engaged stack (top-down scan: releases
// are LIFO in practice, but out-of-order unlocks stay correct).
func (rt *Runtime) exit(id int, l *FlexGuard) {
	st := rt.engaged[id]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == l {
			rt.engaged[id] = append(st[:i], st[i+1:]...) //flexlint:allow hotalloc in-place slice delete; never grows
			return
		}
	}
}

// threadDied is the kill hook: walk the dead thread's engaged stack and
// flag every lock it owned at death.
func (rt *Runtime) threadDied(dead *sim.Thread) {
	st := rt.engaged[dead.ID()]
	for i, l := range st {
		if l.heldAtDeath(dead, i == len(st)-1, len(st)) {
			l.ownerDied(dead)
		}
	}
}

// heldAtDeath decides whether the dead thread owned l.val, from exactly
// the state a kernel could see: the frozen region label, the register
// analogue, and the CS counter. Every non-top engaged lock is held (a
// thread only engages a new lock while holding its previous ones); the
// top one is held iff the thread died past its acquisition point.
func (l *FlexGuard) heldAtDeath(dead *sim.Thread, top bool, depth int) bool {
	if !top {
		return true
	}
	switch dead.Region {
	case regAcquired, regUnlock:
		return true
	case regFastCAS, regP2CAS:
		return dead.Reg == Unlocked
	case regP2Swap:
		return dead.Reg == Unlocked || dead.Reg == OwnerDied
	case regClaim:
		return dead.Reg == OwnerDied
	case regTailXchg, regP1Spin, regMCSHolder:
		// MCS-phase windows: the thread may own the MCS baton but not
		// the single-variable lock. The queue needs no kernel repair —
		// the monitor's preempted-forever accounting pushes every live
		// waiter to blocking mode and the queue drains around the
		// corpse.
		return false
	}
	// No label: in the CS body iff every engaged lock (this one
	// included) has been counted into cs_counter.
	return int(dead.CSCounter) >= depth
}

// ownerDied flags l's word OwnerDied and wakes every parked waiter so
// one of them claims the lock (the rest re-establish the blocked-
// waiters state before re-parking). Kernel context — free peeks and
// kernel stores, not Proc ops.
func (l *FlexGuard) ownerDied(dead *sim.Thread) {
	rt := l.rt
	rt.OwnerDeaths++
	v := l.val.V()
	rt.m.KernelStore(l.val, OwnerDied)
	rt.m.KernelLockEvent(sim.TraceOwnerDead, l.lid, int32(dead.ID()), -1)
	if v == LockedWithBlockedWaiters {
		rt.m.KernelFutexWake(l.val, 1<<30, int32(dead.ID()))
	}
}

// claim attempts the EOWNERDEAD takeover of an owner-died word. Returns
// Unlocked only when the lock was actually acquired: by the claim CAS
// taking over the dead owner's word (recovered), or — when a racing
// claimer recovered the word and fully released it between this
// thread's OwnerDied observation and its CAS — by winning the now-free
// word with a plain acquisition CAS. An Unlocked value *observed* by a
// failed CAS must never escape: unlike p2CAS, where a returned Unlocked
// proves the CAS from Unlocked succeeded, here it would prove the claim
// CAS failed on a free word, and every call site reads Unlocked as
// "acquired". Only reachable after a holder crash, so crash-free traces
// never execute these ops.
func (l *FlexGuard) claim(p *sim.Proc) uint64 {
	for {
		p.SetRegion(regClaim)
		got := p.CAS(l.val, OwnerDied, Locked)
		p.SetRegion(sim.RegionNone)
		if got == OwnerDied {
			l.rt.Recoveries++
			p.LockEvent(sim.TraceRecover, l.lid)
			return Unlocked
		}
		if got != Unlocked {
			return got
		}
		// The word went free under us: acquire it like any free word
		// (regP2CAS: in CS iff the CAS returned Unlocked).
		p.SetRegion(regP2CAS)
		got = p.CAS(l.val, Unlocked, Locked)
		p.SetRegion(sim.RegionNone)
		if got != OwnerDied {
			return got
		}
		// Another holder crashed while we raced: claim again.
	}
}

// claimedBySwap handles a Phase-2 XCHG that returned OwnerDied: the
// swap itself took over the dead owner's lock (and already left the
// word in the blocked-waiters state for the waiters the kernel woke).
func (l *FlexGuard) claimedBySwap(p *sim.Proc) uint64 {
	l.rt.Recoveries++
	p.LockEvent(sim.TraceRecover, l.lid)
	return Unlocked
}
