package locks

import (
	"testing"

	"repro/internal/sim"
)

// TestRobustBlockingWakeChain is the regression test for the lost
// waiters bit: unlock's XCHG clears the word, so a woken waiter that
// re-acquired with a bare owner word would never wake the *other*
// parked waiter — a thread stranded forever on a free lock. Found by
// the crash campaign (alg=robust/blocking seed=1029 plan=crash-queue=0.2);
// the bug needs no crash, just two parked waiters.
func TestRobustBlockingWakeChain(t *testing.T) {
	m, s := newMachine(4, 13)
	l := NewRobustBlocking(m, s.Robust(), "L")
	acquired := make([]bool, 2)
	m.Spawn("holder", func(p *sim.Proc) {
		l.Lock(p)
		p.Compute(500_000) // long CS: both waiters park behind it
		l.Unlock(p)
	})
	for i := 0; i < 2; i++ {
		i := i
		m.Spawn("waiter", func(p *sim.Proc) {
			p.Compute(sim.Time(10_000 * (i + 1)))
			l.Lock(p)
			acquired[i] = true
			p.Compute(1_000)
			l.Unlock(p)
		})
	}
	m.Run(10_000_000)
	for i, ok := range acquired {
		if !ok {
			t.Fatalf("waiter %d stranded: the wake chain broke after the first handover", i)
		}
	}
}

// TestRobustBlockingOwnerDied: the holder crashes mid-CS; the kernel
// walk flags the word owner-died and wakes the parked waiter, which
// claims the lock on the EOWNERDEAD path and keeps going.
func TestRobustBlockingOwnerDied(t *testing.T) {
	m, s := newMachine(2, 3)
	tr := m.AttachTracer(1 << 14)
	l := NewRobustBlocking(m, s.Robust(), "L")
	recovered := false
	holder := m.Spawn("holder", func(p *sim.Proc) {
		l.Lock(p)
		p.Compute(1_000_000) // killed in here, lock held
		l.Unlock(p)
	})
	m.Spawn("waiter", func(p *sim.Proc) {
		p.Compute(10_000) // arrive second, park
		l.Lock(p)
		recovered = true
		p.Compute(1_000)
		l.Unlock(p)
	})
	m.KillAt(100_000, holder)
	m.Run(5_000_000)
	if !recovered {
		t.Fatal("waiter never recovered the dead holder's lock")
	}
	if s.Robust().OwnerDeaths != 1 {
		t.Fatalf("OwnerDeaths = %d, want 1", s.Robust().OwnerDeaths)
	}
	if n := tr.Count(sim.TraceOwnerDead); n != 1 {
		t.Fatalf("TraceOwnerDead events = %d, want 1", n)
	}
	if n := tr.Count(sim.TraceRecover); n != 1 {
		t.Fatalf("TraceRecover events = %d, want 1", n)
	}
}

// TestRobustBlockingNoRecovery: with a nil registry (the no-recovery
// mutant), a crashed holder orphans the lock — the waiter stays parked
// forever instead of recovering. This is the failure the robust layer
// exists to remove, and the shape the checker's orphaned-lock verdict
// reports.
func TestRobustBlockingNoRecovery(t *testing.T) {
	m, _ := newMachine(2, 3)
	l := NewRobustBlocking(m, nil, "L")
	holder := m.Spawn("holder", func(p *sim.Proc) {
		l.Lock(p)
		p.Compute(1_000_000)
		l.Unlock(p)
	})
	waiter := m.Spawn("waiter", func(p *sim.Proc) {
		p.Compute(10_000)
		l.Lock(p)
		l.Unlock(p)
	})
	m.KillAt(100_000, holder)
	m.Run(5_000_000)
	if waiter.State() != sim.StateBlocked {
		t.Fatalf("waiter state = %v, want blocked (orphaned lock)", waiter.State())
	}
}

// TestRobustMCSDeadWaiterSkipped: a waiter crashes while spinning in the
// queue between the holder and a second waiter. The kernel walk marks
// its node dead, and the holder's handover walk skips the corpse and
// grants the live successor.
func TestRobustMCSDeadWaiterSkipped(t *testing.T) {
	m, s := newMachine(4, 5)
	tr := m.AttachTracer(1 << 14)
	l := NewRobustMCS(m, s.Robust(), "L")
	acquired := make(map[string]bool)
	spawn := func(name string, arrive, cs sim.Time) *sim.Thread {
		return m.Spawn(name, func(p *sim.Proc) {
			p.Compute(arrive)
			l.Lock(p)
			acquired[name] = true
			p.Compute(cs)
			l.Unlock(p)
		})
	}
	spawn("holder", 0, 500_000)
	victim := spawn("victim", 10_000, 1_000)
	spawn("behind", 20_000, 1_000)
	m.KillAt(100_000, victim) // victim is spinning in the queue
	m.Run(5_000_000)
	if acquired["victim"] {
		t.Fatal("dead waiter acquired the lock")
	}
	if !acquired["behind"] {
		t.Fatal("live waiter behind the corpse never got the lock")
	}
	if s.Robust().Unlinks != 1 || s.Abandons != 1 {
		t.Fatalf("Unlinks = %d, Abandons = %d, want 1, 1", s.Robust().Unlinks, s.Abandons)
	}
	if n := tr.Count(sim.TraceAbandon); n != 1 {
		t.Fatalf("TraceAbandon events = %d, want 1", n)
	}
}

// crashStub is a minimal deterministic crash injector for tests: it
// kills victim at the first instruction boundary where pred holds.
// Unlike KillAt it targets a protocol window exactly, not a virtual
// time.
type crashStub struct {
	victim *sim.Thread
	pred   func(t *sim.Thread) bool
	fired  bool
}

func (c *crashStub) SliceGrant(t *sim.Thread, s sim.Time) sim.Time  { return s }
func (c *crashStub) PreemptAtBoundary(t *sim.Thread) bool           { return false }
func (c *crashStub) WakeDelay(t *sim.Thread, lat sim.Time) sim.Time { return lat }
func (c *crashStub) SpuriousWakeDelay(t *sim.Thread) sim.Time       { return 0 }
func (c *crashStub) CrashParkedDelay(t *sim.Thread) sim.Time        { return 0 }
func (c *crashStub) CrashParkedOutcome(t *sim.Thread, landed bool)  {}
func (c *crashStub) CrashAtBoundary(t *sim.Thread) bool {
	if c.fired || t != c.victim || !c.pred(t) {
		return false
	}
	c.fired = true
	return true
}

// TestRobustMCSDeadBeforeLinkPublished: the victim crashes between the
// tail XCHG and the predecessor link store — tail points at a node the
// chain never reaches. The kernel walk must publish the missing link
// from the corpse's register, or the holder's Unlock spins on its .next
// forever waiting for a store the dead thread will never make.
func TestRobustMCSDeadBeforeLinkPublished(t *testing.T) {
	m, s := newMachine(4, 5)
	l := NewRobustMCS(m, s.Robust(), "L")
	acquired := make(map[string]bool)
	spawn := func(name string, arrive, cs sim.Time) *sim.Thread {
		return m.Spawn(name, func(p *sim.Proc) {
			p.Compute(arrive)
			l.Lock(p)
			acquired[name] = true
			p.Compute(cs)
			l.Unlock(p)
		})
	}
	spawn("holder", 0, 500_000)
	victim := spawn("victim", 10_000, 1_000)
	spawn("behind", 200_000, 1_000)
	// First boundary matching: right after the victim's tail XCHG, with
	// the predecessor link store still unexecuted.
	m.SetFaultInjector(&crashStub{victim: victim, pred: func(th *sim.Thread) bool {
		return th.Region == regRMEnqueue && th.Reg != 0
	}})
	m.Run(5_000_000)
	if acquired["victim"] {
		t.Fatal("dead waiter acquired the lock")
	}
	if !acquired["holder"] || !acquired["behind"] {
		t.Fatalf("survivors wedged behind the unlinked corpse: holder=%v behind=%v",
			acquired["holder"], acquired["behind"])
	}
	if s.Robust().Unlinks != 1 || s.Abandons != 1 {
		t.Fatalf("Unlinks = %d, Abandons = %d, want 1, 1", s.Robust().Unlinks, s.Abandons)
	}
}

// TestRobustMCSDeadBeforeEnqueue: the victim crashes after announcing
// (status stored rmWaiting) but before the tail XCHG — it never entered
// the queue. The walk must not mark the node, bump the unlink counters,
// or emit TraceAbandon for a waiter no other thread ever saw.
func TestRobustMCSDeadBeforeEnqueue(t *testing.T) {
	m, s := newMachine(4, 5)
	tr := m.AttachTracer(1 << 14)
	rl := NewRobustMCS(m, s.Robust(), "L")
	acquired := make(map[string]bool)
	spawn := func(name string, arrive, cs sim.Time) *sim.Thread {
		return m.Spawn(name, func(p *sim.Proc) {
			p.Compute(arrive)
			rl.Lock(p)
			acquired[name] = true
			p.Compute(cs)
			rl.Unlock(p)
		})
	}
	spawn("holder", 0, 500_000)
	victim := spawn("victim", 10_000, 1_000)
	spawn("behind", 200_000, 1_000)
	vid := victim.ID()
	// First boundary matching: right after the victim's rmWaiting store,
	// before it sets the enqueue region for the XCHG.
	m.SetFaultInjector(&crashStub{victim: victim, pred: func(th *sim.Thread) bool {
		qn := rl.nodes[vid]
		return th.Region == sim.RegionNone && qn != nil && qn.status.V() == rmWaiting
	}})
	m.Run(5_000_000)
	if acquired["victim"] {
		t.Fatal("dead thread acquired the lock")
	}
	if !acquired["holder"] || !acquired["behind"] {
		t.Fatalf("survivors wedged: holder=%v behind=%v", acquired["holder"], acquired["behind"])
	}
	if s.Robust().Unlinks != 0 || s.Abandons != 0 {
		t.Fatalf("never-enqueued corpse counted: Unlinks = %d, Abandons = %d, want 0, 0",
			s.Robust().Unlinks, s.Abandons)
	}
	if n := tr.Count(sim.TraceAbandon); n != 0 {
		t.Fatalf("TraceAbandon events = %d, want 0", n)
	}
}

// TestRobustMCSDeadAtEmptyQueueXchg: the victim crashes at the tail
// XCHG that won it an empty queue — it owns the lock at the instant of
// death, with its status still rmWaiting. The kernel walk must treat it
// as a dead holder (owner-died, not a waiter unlink) and reset the
// tail, so later arrivals acquire a clean lock instead of enqueueing
// behind a corpse forever.
func TestRobustMCSDeadAtEmptyQueueXchg(t *testing.T) {
	m, s := newMachine(4, 5)
	tr := m.AttachTracer(1 << 14)
	l := NewRobustMCS(m, s.Robust(), "L")
	acquired := make(map[string]bool)
	victim := m.Spawn("victim", func(p *sim.Proc) {
		l.Lock(p)
		acquired["victim"] = true
		l.Unlock(p)
	})
	m.Spawn("late", func(p *sim.Proc) {
		p.Compute(100_000)
		l.Lock(p)
		acquired["late"] = true
		p.Compute(1_000)
		l.Unlock(p)
	})
	m.SetFaultInjector(&crashStub{victim: victim, pred: func(th *sim.Thread) bool {
		return th.Region == regRMEnqueue && th.Reg == 0
	}})
	m.Run(5_000_000)
	if acquired["victim"] {
		t.Fatal("dead thread acquired the lock")
	}
	if !acquired["late"] {
		t.Fatal("late arrival never acquired the lock the kernel reset")
	}
	if s.Robust().OwnerDeaths != 1 {
		t.Fatalf("OwnerDeaths = %d, want 1", s.Robust().OwnerDeaths)
	}
	if s.Robust().Unlinks != 0 || s.Abandons != 0 {
		t.Fatalf("holder death counted as a waiter unlink: Unlinks = %d, Abandons = %d",
			s.Robust().Unlinks, s.Abandons)
	}
	if n := tr.Count(sim.TraceOwnerDead); n != 1 {
		t.Fatalf("TraceOwnerDead events = %d, want 1", n)
	}
}

// TestRobustMCSDeadTail: the crashed waiter is the queue tail; the
// holder's walk adopts the dead node, closes the queue through it, and
// a later arrival acquires a clean lock.
func TestRobustMCSDeadTail(t *testing.T) {
	m, s := newMachine(4, 5)
	l := NewRobustMCS(m, s.Robust(), "L")
	late := false
	holder := m.Spawn("holder", func(p *sim.Proc) {
		l.Lock(p)
		p.Compute(500_000)
		l.Unlock(p)
	})
	victim := m.Spawn("victim", func(p *sim.Proc) {
		p.Compute(10_000)
		l.Lock(p)
		l.Unlock(p)
	})
	m.Spawn("late", func(p *sim.Proc) {
		p.Compute(1_000_000) // arrives after the repair completed
		l.Lock(p)
		late = true
		l.Unlock(p)
	})
	_ = holder
	m.KillAt(100_000, victim)
	m.Run(5_000_000)
	if !late {
		t.Fatal("late arrival never acquired the repaired lock")
	}
	if s.Robust().Unlinks != 1 {
		t.Fatalf("Unlinks = %d, want 1", s.Robust().Unlinks)
	}
}
