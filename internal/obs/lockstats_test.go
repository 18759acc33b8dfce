package obs

import (
	"testing"

	"repro/internal/sim"
)

func observerForTest() (*LockObserver, int32) {
	cfg := sim.Small(1)
	cfg.Seed = 1
	m := sim.New(cfg)
	o := Observe(m)
	return o, m.RegisterLockName("L")
}

func TestLockObserverHoldAndHandover(t *testing.T) {
	o, lid := observerForTest()
	ev := func(at sim.Time, k sim.TraceKind, tid int32) {
		o.LockEvent(at, k, lid, tid, -1)
	}
	// Thread 0 holds [100,400); thread 1 acquires at 500 (handover 100)
	// and holds [500,900).
	ev(100, sim.TraceAcquire, 0)
	ev(400, sim.TraceRelease, 0)
	ev(500, sim.TraceAcquire, 1)
	ev(900, sim.TraceRelease, 1)

	ls := o.Stats()
	if len(ls) != 1 {
		t.Fatalf("want 1 lock, got %d", len(ls))
	}
	l := ls[0]
	if l.Name != "L" || l.Acquires != 2 || l.Releases != 2 {
		t.Fatalf("counts wrong: %+v", l)
	}
	h := l.Hold.Snapshot()
	if h.Count != 2 || h.Min != 300 || h.Max != 400 || h.Sum != 700 {
		t.Fatalf("hold histogram wrong: %+v", h)
	}
	g := l.HandoverLat.Snapshot()
	if g.Count != 1 || g.Min != 100 || g.Max != 100 {
		t.Fatalf("handover latency wrong: %+v", g)
	}
}

// A waiter that spins, then blocks, then spins again before acquiring
// counts one spin→block and one block→spin transition; acquiring resets
// its wait mode so the next episode starts fresh.
func TestLockObserverWaitModeTransitions(t *testing.T) {
	o, lid := observerForTest()
	ev := func(at sim.Time, k sim.TraceKind, tid int32) {
		o.LockEvent(at, k, lid, tid, -1)
	}
	ev(10, sim.TraceSpinStart, 3)
	ev(20, sim.TraceLockBlock, 3) // spin -> block
	ev(30, sim.TraceSpinStart, 3) // block -> spin
	ev(40, sim.TraceAcquire, 3)   // resets wait mode
	ev(50, sim.TraceRelease, 3)
	ev(60, sim.TraceLockBlock, 3) // fresh episode: no spin leg before it
	ev(70, sim.TraceAcquire, 3)

	l := o.Stats()[0]
	if l.SpinStarts != 2 || l.Blocks != 2 {
		t.Fatalf("spin/block counts wrong: %+v", l)
	}
	if l.SpinToBlock != 1 || l.BlockToSpin != 1 {
		t.Fatalf("transitions wrong: s->b=%d b->s=%d (want 1/1)",
			l.SpinToBlock, l.BlockToSpin)
	}
}

// Per-waiter transitions are tracked independently per thread.
func TestLockObserverPerThreadWaitMode(t *testing.T) {
	o, lid := observerForTest()
	o.LockEvent(10, sim.TraceSpinStart, lid, 0, -1)
	o.LockEvent(11, sim.TraceLockBlock, lid, 1, -1) // thread 1 never spun
	o.LockEvent(12, sim.TraceLockBlock, lid, 0, -1) // thread 0: spin -> block
	l := o.Stats()[0]
	if l.SpinToBlock != 1 {
		t.Fatalf("per-thread transitions leaked across tids: %+v", l)
	}
}

// Monitor events carry no lock and a checker verdict is no lock
// activity: neither opens a lock row or moves a counter, even when the
// verdict names a lock the observer has not seen.
func TestLockObserverSkipsMonitorAndVerdictEvents(t *testing.T) {
	o, lid := observerForTest()
	other := o.m.RegisterLockName("M")
	o.LockEvent(5, sim.TraceNPCSUp, -1, 2, 1)
	o.LockEvent(5, sim.TracePolicySwitch, -1, 2, 1)
	o.LockEvent(9, sim.TraceNPCSDown, -1, 2, 0)
	o.LockEvent(9, sim.TracePolicySwitch, -1, 2, 0)
	o.LockEvent(9, sim.TraceMonitorStale, -1, -1, 1)
	o.LockEvent(10, sim.TraceAcquire, lid, 0, -1)
	o.LockEvent(20, sim.TraceHandover, lid, 0, 1)
	o.LockEvent(20, sim.TraceLockWake, lid, 0, -1)
	o.LockEvent(21, sim.TraceRelease, lid, 0, -1)
	o.LockEvent(22, sim.TraceViolation, other, 0, 1)

	if ls := o.Stats(); len(ls) != 1 || ls[0].Name != "L" {
		t.Fatalf("want one row for L, got %d rows", len(ls))
	}
	tot := o.Totals()
	if tot.Acquires != 1 || tot.Releases != 1 || tot.Handovers != 1 || tot.Wakes != 1 {
		t.Fatalf("totals wrong: %+v", tot)
	}
	sums := o.Summaries(1)
	if len(sums) != 1 || sums[0].Name != "L" || sums[0].Acquires != 1 || sums[0].Hold.Count != 1 {
		t.Fatalf("summaries wrong: %+v", sums)
	}
}
