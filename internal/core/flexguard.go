package core

import (
	"fmt"

	"repro/internal/sim"
)

// FlexGuard is one FlexGuard lock instance (12 bytes in the paper: a
// 4-byte single-variable lock plus the 8-byte MCS tail). Waiters busy-wait
// while the Preemption Monitor reports no preempted critical section and
// block on the single-variable lock's futex otherwise; transitions happen
// while the lock stays in use, with no loss of mutual exclusion.
type FlexGuard struct {
	rt    *Runtime
	val   *sim.Word // single-variable lock: Unlocked/Locked/LockedWithBlockedWaiters
	tail  *sim.Word // MCS tail: encoded thread id + 1; 0 = empty
	npcs  *sim.Word // the num_preempted_cs counter this lock reacts to
	stale *sim.Word // monitor health flag: nonzero means NPCS cannot be trusted
	ext   bool      // request timeslice extension while holding the lock
	// blockingExit enables the busy-waiting-or-blocking mcs_exit loop the
	// paper evaluated and reverted (§3.2.1, "Optimizing MCS exit") — kept
	// as an ablation to reproduce that it brings no gains.
	blockingExit bool
	lid          int32
}

// LockOption configures NewLock.
type LockOption func(*FlexGuard)

// WithTimesliceExtension makes the lock set the rseq-area extension flag
// while the critical section is held ("FlexGuard with timeslice
// extension" in §5). It has effect only on machines whose scheduler grants
// extensions (Costs.SliceExt > 0).
func WithTimesliceExtension() LockOption {
	return func(l *FlexGuard) { l.ext = true }
}

// WithBlockingMCSExit turns mcs_exit's wait-for-successor loop into a
// busy-waiting-or-blocking loop (the design the paper tried and reverted:
// the loop only runs when the queue is empty, which is rare under
// oversubscription, so the extra complexity buys nothing). Enqueuing
// threads then issue a wake after linking.
func WithBlockingMCSExit() LockOption {
	return func(l *FlexGuard) { l.blockingExit = true }
}

// NewLock creates a FlexGuard lock. In the monitor's per-lock ablation
// mode the lock allocates and reacts to its own preemption counter;
// otherwise it reads the system-wide one.
func (rt *Runtime) NewLock(name string, opts ...LockOption) *FlexGuard {
	lid := rt.m.RegisterLockName(name)
	l := &FlexGuard{
		rt:    rt,
		val:   rt.m.NewLockWord(lid, ".val", Unlocked),
		tail:  rt.m.NewLockWord(lid, ".tail", 0),
		npcs:  rt.mon.NPCS(),
		stale: rt.mon.StaleWord(),
		lid:   lid,
	}
	if rt.mon.PerLock() {
		l.npcs = rt.m.NewLockWord(lid, ".npcs", 0)
	}
	for _, o := range opts {
		o(l)
	}
	return l
}

// String implements fmt.Stringer.
func (l *FlexGuard) String() string { return fmt.Sprintf("flexguard(%s)", l.rt.m.LockName(l.lid)) }

// Graceful degradation: every busy-wait decision couples the NPCS read
// with the monitor's health flag. A stale monitor (dropped events,
// detached program, wedged counter) can report npcs == 0 forever; absent
// this check, waiters would spin through preempted critical sections
// indefinitely — spinning on a lie. When stale, the lock behaves as a
// plain futex lock: always choose blocking mode, which is correct (if
// slower) under any schedule. Both words live in the same eBPF-mapped
// page, so the paired read costs nothing extra.

// modeSpin is the costed mode check at slow-path decision points.
func (l *FlexGuard) modeSpin(p *sim.Proc) bool {
	// The stale flag is monitor-maintained advice, not shared lock state:
	// reading it free-of-cost matches the paper's uncosted mode check.
	//flexlint:allow costcoverage stale is advisory monitor state, peek is deliberate
	return p.Load(l.npcs) == 0 && l.stale.V() == 0
}

// spinOK is the uncosted predicate evaluated inside busy-wait loops:
// keep spinning only while NPCS is zero and the signal is fresh.
func (l *FlexGuard) spinOK() bool {
	return l.npcs.V() == 0 && l.stale.V() == 0
}

// Lock acquires the FlexGuard lock (Listing 2, flexguard_lock).
func (l *FlexGuard) Lock(p *sim.Proc) {
	p.Thread().MonitorHint = l.npcs
	l.rt.enter(p.ID(), l)
	// Fast path: try to steal the single-variable lock if free.
	if p.Load(l.val) == Unlocked {
		p.SetRegion(regFastCAS)
		if p.CAS(l.val, Unlocked, Locked) == Unlocked {
			p.SetRegion(regAcquired)
			p.IncCS()
			p.SetRegion(sim.RegionNone)
			p.LockEvent(sim.TraceAcquire, l.lid)
			l.postAcquire(p)
			return
		}
		p.SetRegion(sim.RegionNone)
	}
	// There are waiters (or the lock is held): enter the slow path.
	l.slowPath(p)
	l.postAcquire(p)
}

func (l *FlexGuard) postAcquire(p *sim.Proc) {
	if l.ext {
		p.SetExtendSlice(true)
	}
}

// Unlock releases the FlexGuard lock (Listing 2, flexguard_unlock).
func (l *FlexGuard) Unlock(p *sim.Proc) {
	if l.ext {
		p.SetExtendSlice(false)
	}
	p.LockEvent(sim.TraceRelease, l.lid)
	p.SetRegion(regUnlock)
	p.DecCS()
	// The release store; the label transition to RegionNone is atomic with
	// the store's effect (the at_store label sits right after the XCHG).
	released := p.XchgTo(l.val, Unlocked, sim.RegionNone)
	l.rt.exit(p.ID(), l)
	if released == LockedWithBlockedWaiters {
		if p.FutexWake(l.val, 1) > 0 { // wake one of the blocked waiters
			p.LockEvent(sim.TraceLockWake, l.lid)
		}
	}
}

// slowPath implements flexguard_slow_path (Listing 2 lines 34–66). The
// paper's tail-recursive "restart the slow path" (line 63) is the outer
// loop here.
func (l *FlexGuard) slowPath(p *sim.Proc) {
	qn := l.rt.node(p.ID())
	self := uint64(p.ID() + 1)
	for {
		enqueued := false
		mcsHolder := false
		// Phase 1: MCS queue — only in busy-waiting mode.
		if l.modeSpin(p) {
			enqueued = true
			p.Store(qn.next, 0)
			// Release-annotated: a stale handover store from a predecessor
			// that drained out of order (§3.2.3) may cross this re-arm;
			// both writes are atomics in the real implementation and either
			// order is tolerated (phase 2's CAS still arbitrates).
			p.StoreRel(qn.waiting, 1)
			p.SetRegion(regTailXchg)
			pred := p.Xchg(l.tail, self)
			if pred == 0 {
				// Empty queue: we are the MCS holder immediately.
				mcsHolder = true
				p.SetRegion(regMCSHolder)
			} else {
				p.SetRegion(sim.RegionNone)
				p.Store(l.rt.node(int(pred-1)).next, self)
				if l.blockingExit {
					// The ablated design needs enqueuers to wake a
					// predecessor that blocked waiting for this link.
					p.FutexWake(l.rt.node(int(pred-1)).next, 1)
				}
				p.SetRegion(regP1Spin)
				p.LockEvent(sim.TraceSpinStart, l.lid)
				p.SpinOn(func() bool {
					return qn.waiting.V() == 1 && l.spinOK()
				}, qn.waiting, l.npcs, l.stale)
				if p.Load(qn.waiting) == 0 {
					// Handover: we now hold the MCS lock.
					mcsHolder = true
					p.SetRegion(regMCSHolder)
				} else {
					// Mode switched to blocking mid-queue: jump to Phase 2.
					p.SetRegion(sim.RegionNone)
				}
			}
		}
		// Phase 2: acquire the single-variable lock.
		state := l.p2CAS(p, mcsHolder)
		if state == OwnerDied {
			state = l.claim(p)
		}
		restart := false
		for state != Unlocked {
			if l.modeSpin(p) {
				// Busy-waiting mode: spin until the lock looks free (or
				// claimable after a holder crash) or the mode changes,
				// then retry the CAS.
				l.p2SpinRegion(p, mcsHolder)
				p.LockEvent(sim.TraceSpinStart, l.lid)
				p.SpinOn(func() bool {
					v := l.val.V()
					return v != Unlocked && v != OwnerDied && l.spinOK()
				}, l.val, l.npcs, l.stale)
				state = l.p2CAS(p, mcsHolder)
				if state == OwnerDied {
					state = l.claim(p)
				}
				continue
			}
			// Blocking mode.
			if enqueued {
				l.mcsExit(p, qn)
				enqueued = false
				mcsHolder = false
				p.SetRegion(sim.RegionNone)
			}
			if state != LockedWithBlockedWaiters {
				p.SetRegion(regP2Swap)
				state = p.Xchg(l.val, LockedWithBlockedWaiters)
				if state == OwnerDied {
					state = l.claimedBySwap(p)
				}
			}
			if state != Unlocked {
				p.SetRegion(sim.RegionNone)
				p.LockEvent(sim.TraceLockBlock, l.lid)
				p.FutexWait(l.val, LockedWithBlockedWaiters)
				p.SetRegion(regP2Swap)
				state = p.Xchg(l.val, LockedWithBlockedWaiters)
				if state == OwnerDied {
					state = l.claimedBySwap(p)
				}
				if state != Unlocked && l.modeSpin(p) {
					// Back to spin mode: restart the slow path (use MCS).
					p.SetRegion(sim.RegionNone)
					restart = true
					break
				}
			}
		}
		if restart {
			continue
		}
		// Lock acquired (by busy-waiting or blocking).
		p.SetRegion(regAcquired)
		if enqueued {
			l.mcsExit(p, qn)
		}
		p.IncCS()
		p.SetRegion(sim.RegionNone)
		p.LockEvent(sim.TraceAcquire, l.lid)
		return
	}
}

// p2CAS performs the Phase-2 CAS with the right label region: an MCS
// holder is in CS unconditionally; anyone else relies on the register
// check.
func (l *FlexGuard) p2CAS(p *sim.Proc, mcsHolder bool) uint64 {
	if !mcsHolder {
		p.SetRegion(regP2CAS)
	}
	return p.CAS(l.val, Unlocked, Locked)
}

// p2SpinRegion sets the region for the Phase-2 busy-wait leg.
func (l *FlexGuard) p2SpinRegion(p *sim.Proc, mcsHolder bool) {
	if mcsHolder {
		p.SetRegion(regMCSHolder)
	} else {
		p.SetRegion(sim.RegionNone)
	}
}

// mcsExit leaves the MCS queue (Listing 2 lines 13–19). It may run out of
// queue order during busy→blocking transitions (§3.2.3): each exiting
// thread signals its successor, draining the queue.
func (l *FlexGuard) mcsExit(p *sim.Proc, qn *QNode) {
	self := uint64(p.ID() + 1)
	if p.Load(qn.next) == 0 {
		if p.CAS(l.tail, self, 0) == self {
			return
		}
		// A successor is enqueuing itself: wait for the link. The paper
		// evaluated making this loop blocking-aware and reverted it
		// (§3.2.1, "Optimizing MCS exit"); WithBlockingMCSExit re-enables
		// that design for the ablation benchmark.
		if l.blockingExit {
			for p.Load(qn.next) == 0 {
				if l.modeSpin(p) {
					p.SpinOnMax(func() bool {
						return qn.next.V() == 0 && l.spinOK()
					}, 10_000, qn.next, l.npcs, l.stale)
				} else {
					p.FutexWait(qn.next, 0)
				}
			}
		} else {
			p.SpinOn(func() bool { return qn.next.V() == 0 }, qn.next)
		}
	}
	succ := int(p.Load(qn.next) - 1)
	next := l.rt.node(succ)
	p.LockEventArg(sim.TraceHandover, l.lid, int32(succ))
	p.StoreRel(next.waiting, 0)
}
