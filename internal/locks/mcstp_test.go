package locks

import (
	"testing"

	"repro/internal/sim"
)

// targetPreempt is a minimal sim.FaultInjector that forcibly preempts
// one victim thread at every instruction boundary — the deterministic
// core of the forced-preemption plans in internal/fault, kept local to
// avoid the import cycle (fault imports locks for the mutants).
type targetPreempt struct {
	victim *sim.Thread
	fired  int64
}

func (i *targetPreempt) SliceGrant(t *sim.Thread, slice sim.Time) sim.Time { return slice }
func (i *targetPreempt) WakeDelay(t *sim.Thread, lat sim.Time) sim.Time    { return lat }
func (i *targetPreempt) SpuriousWakeDelay(t *sim.Thread) sim.Time          { return 0 }
func (i *targetPreempt) PreemptAtBoundary(t *sim.Thread) bool {
	if t != i.victim {
		return false
	}
	i.fired++
	return true
}

// TestMCSTPRemovesPreemptedWaiter: a queue waiter that is forcibly
// preempted at every boundary stops publishing fresh timestamps; the
// releasing holder judges it preempted, aborts its acquisition
// (tpRemoved, counted as an abandonment), and the victim re-enters the
// queue from scratch once it runs again.
func TestMCSTPRemovesPreemptedWaiter(t *testing.T) {
	m, s := newMachine(1, 11)
	l := NewMCSTP(s, "L")
	victimAcquired := 0
	victim := m.Spawn("victim", func(p *sim.Proc) {
		p.Compute(5_000) // enqueue behind the holder
		l.Lock(p)
		victimAcquired++
		l.Unlock(p)
	})
	m.Spawn("holder", func(p *sim.Proc) {
		l.Lock(p)
		for i := 0; i < 100; i++ {
			p.Compute(2_000) // long chunked CS: boundaries for the scheduler
		}
		l.Unlock(p)
	})
	inj := &targetPreempt{victim: victim}
	m.SetFaultInjector(inj)
	m.Run(20_000_000)
	if inj.fired == 0 {
		t.Fatal("forced preemption never fired")
	}
	if s.Abandons == 0 {
		t.Fatal("holder never removed the preempted waiter (no abandonment)")
	}
	if victimAcquired != 1 {
		t.Fatalf("victim acquired %d times, want 1 (re-enqueue after removal)", victimAcquired)
	}
}

// TestMCSTPRemovesDeadWaiter: a waiter that crashes in the queue is the
// limit case of permanent preemption — its timestamp goes stale and the
// holder removes it, so MCS-TP self-heals from queue-waiter crashes
// without any robust machinery.
func TestMCSTPRemovesDeadWaiter(t *testing.T) {
	m, s := newMachine(4, 11)
	l := NewMCSTP(s, "L")
	behind := false
	m.Spawn("holder", func(p *sim.Proc) {
		l.Lock(p)
		p.Compute(200_000) // far past tpStaleWaiter after the kill
		l.Unlock(p)
	})
	victim := m.Spawn("victim", func(p *sim.Proc) {
		p.Compute(10_000)
		l.Lock(p)
		l.Unlock(p)
	})
	m.Spawn("behind", func(p *sim.Proc) {
		p.Compute(20_000)
		l.Lock(p)
		behind = true
		l.Unlock(p)
	})
	m.KillAt(50_000, victim)
	m.Run(5_000_000)
	if s.Abandons == 0 {
		t.Fatal("holder never removed the dead waiter")
	}
	if !behind {
		t.Fatal("waiter behind the corpse never got the lock")
	}
}

// TestMCSTPYieldsOnStaleHolder: when the holder dies (the limit case of
// a long holder preemption), its published timestamp freezes; spinning
// waiters detect the staleness and take the yield path instead of
// burning their slices hot-spinning.
func TestMCSTPYieldsOnStaleHolder(t *testing.T) {
	m, s := newMachine(2, 11)
	l := NewMCSTP(s, "L")
	holder := m.Spawn("holder", func(p *sim.Proc) {
		l.Lock(p)
		p.Compute(10_000_000)
		l.Unlock(p)
	})
	m.Spawn("waiter", func(p *sim.Proc) {
		p.Compute(10_000)
		l.Lock(p)
		l.Unlock(p)
	})
	m.KillAt(50_000, holder)
	m.Run(1_000_000)
	if l.holderYields == 0 {
		t.Fatal("waiter never yielded on the stale holder timestamp")
	}
}
