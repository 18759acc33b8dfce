package monitor

import (
	"testing"

	"repro/internal/sim"
)

func newSmall(t *testing.T, ncpu int) *sim.Machine {
	t.Helper()
	cfg := sim.Small(ncpu)
	cfg.Seed = 1
	return sim.New(cfg)
}

// TestCSCounterDetection: a thread preempted while its cs_counter is
// positive must be counted in num_preempted_cs, and the counter must drop
// when it is rescheduled.
func TestCSCounterDetection(t *testing.T) {
	m := newSmall(t, 1)
	mo := Attach(m)
	var maxNPCS uint64
	m.RegisterSwitchHook(func(prev, next *sim.Thread) {
		if v := mo.NPCS().V(); v > maxNPCS {
			maxNPCS = v
		}
	})
	m.Spawn("holder", func(p *sim.Proc) {
		p.IncCS()
		for {
			p.Compute(1000)
		}
	})
	m.Spawn("other", func(p *sim.Proc) {
		for {
			p.Compute(1000)
		}
	})
	m.Run(2_000_000)
	if mo.InCSPreemptions == 0 {
		t.Fatal("holder was never detected as preempted in CS")
	}
	if maxNPCS == 0 {
		t.Fatal("num_preempted_cs never rose above zero")
	}
	if mo.Reschedules == 0 {
		t.Fatal("preempted holder was never detected as rescheduled")
	}
}

// TestCounterBalance: every increment must be matched by a decrement when
// the thread gets back on CPU; at any instant the counter equals the
// number of marked threads.
func TestCounterBalance(t *testing.T) {
	m := newSmall(t, 2)
	mo := Attach(m)
	bad := false
	m.RegisterSwitchHook(func(prev, next *sim.Thread) {
		var marked uint64
		for _, th := range m.Threads() {
			if th.MonitorMark {
				marked++
			}
		}
		if mo.NPCS().V() != marked {
			bad = true
		}
	})
	for i := 0; i < 6; i++ {
		m.Spawn("w", func(p *sim.Proc) {
			for {
				p.IncCS()
				p.Compute(500)
				p.DecCS()
				p.Compute(200)
			}
		})
	}
	m.Run(5_000_000)
	if bad {
		t.Fatal("num_preempted_cs diverged from the marked-thread count")
	}
	if mo.InCSPreemptions == 0 {
		t.Fatal("no in-CS preemptions in an oversubscribed run")
	}
}

// TestNotInCSNotCounted: threads that never enter a CS must never be
// counted.
func TestNotInCSNotCounted(t *testing.T) {
	m := newSmall(t, 1)
	mo := Attach(m)
	for i := 0; i < 3; i++ {
		m.Spawn("w", func(p *sim.Proc) {
			for {
				p.Compute(500)
			}
		})
	}
	m.Run(2_000_000)
	if mo.InCSPreemptions != 0 {
		t.Fatalf("counted %d in-CS preemptions with no critical sections", mo.InCSPreemptions)
	}
	if mo.NPCS().V() != 0 {
		t.Fatalf("num_preempted_cs = %d, want 0", mo.NPCS().V())
	}
}

// TestClassifierWindow: a thread with cs_counter == 0 but inside a
// classifier-recognized window must be detected, with the register check
// honored.
func TestClassifierWindow(t *testing.T) {
	const regWin sim.Region = 42
	m := newSmall(t, 1)
	mo := Attach(m)
	mo.SetClassifier(func(th *sim.Thread) (bool, *sim.Word, bool) {
		return th.Region == regWin && th.Reg == 0, nil, false
	})
	w := m.NewWord("lock", 0)
	m.Spawn("locker", func(p *sim.Proc) {
		p.SetRegion(regWin)
		p.Xchg(w, 1) // Reg = 0: "acquired"
		for {
			p.Compute(500)
		}
	})
	m.Spawn("failer", func(p *sim.Proc) {
		p.Compute(100)
		p.SetRegion(regWin)
		p.Xchg(w, 1) // Reg = 1: "failed to acquire"
		for {
			p.Compute(500)
		}
	})
	m.Run(3_000_000)
	if mo.InCSPreemptions == 0 {
		t.Fatal("classifier window never detected")
	}
	// Only the successful locker should ever be marked.
	failer := m.Threads()[1]
	if failer.MonitorMark {
		t.Fatal("thread with failing register check was marked in-CS")
	}
}

// TestPerLockCounters: in the ablation mode, preemptions are charged to
// the classifier-provided per-lock counter, not the global one.
func TestPerLockCounters(t *testing.T) {
	m := newSmall(t, 1)
	mo := Attach(m, PerLockCounters())
	if !mo.PerLock() {
		t.Fatal("PerLock() should report true")
	}
	lockCtr := m.NewWord("lockA.npcs", 0)
	const regWin sim.Region = 9
	mo.SetClassifier(func(th *sim.Thread) (bool, *sim.Word, bool) {
		return th.Region == regWin, lockCtr, false
	})
	var sawPerLock bool
	m.RegisterSwitchHook(func(prev, next *sim.Thread) {
		if lockCtr.V() > 0 {
			sawPerLock = true
		}
	})
	m.Spawn("locker", func(p *sim.Proc) {
		p.SetRegion(regWin)
		for {
			p.Compute(500)
		}
	})
	m.Spawn("other", func(p *sim.Proc) {
		for {
			p.Compute(500)
		}
	})
	m.Run(2_000_000)
	if !sawPerLock {
		t.Fatal("per-lock counter never incremented")
	}
	if mo.NPCS().V() != 0 {
		t.Fatalf("global counter touched in per-lock mode: %d", mo.NPCS().V())
	}
}

// TestNestedCS: cs_counter values above 1 (nesting) still count as one
// in-CS thread.
func TestNestedCS(t *testing.T) {
	m := newSmall(t, 1)
	mo := Attach(m)
	var maxNPCS uint64
	m.RegisterSwitchHook(func(prev, next *sim.Thread) {
		if v := mo.NPCS().V(); v > maxNPCS {
			maxNPCS = v
		}
	})
	m.Spawn("nested", func(p *sim.Proc) {
		p.IncCS()
		p.IncCS()
		for {
			p.Compute(500)
		}
	})
	m.Spawn("other", func(p *sim.Proc) {
		for {
			p.Compute(500)
		}
	})
	m.Run(2_000_000)
	if maxNPCS != 1 {
		t.Fatalf("nested CS counted %d times, want 1", maxNPCS)
	}
}

// TestRecheckPromotion drives the handler by hand through next-waiter
// preemptions: a thread switched out in a recheck window before its
// verdict turns in-CS is marked at a later switch once it does, and not
// before; it is promoted only while it is still in a recheck window; and
// a switch-in takes it off the pending set.
func TestRecheckPromotion(t *testing.T) {
	const (
		regWait  sim.Region = 1 // queue wait: in CS once handed the lock
		regOther sim.Region = 2 // a held-lock window with a fixed verdict
	)
	m := newSmall(t, 1)
	mo := Attach(m)
	handed := false
	mo.SetClassifier(func(th *sim.Thread) (bool, *sim.Word, bool) {
		switch th.Region {
		case regWait:
			return handed, nil, true
		case regOther:
			return true, nil, false
		}
		return false, nil, false
	})
	idle := func(p *sim.Proc) {}
	a, b, c := m.Spawn("waiter", idle), m.Spawn("b", idle), m.Spawn("c", idle)
	marked := func(step string, want bool) {
		t.Helper()
		if a.MonitorMark != want {
			t.Fatalf("%s: waiter marked = %v, want %v", step, a.MonitorMark, want)
		}
		wantNPCS := uint64(0)
		if want {
			wantNPCS = 1
		}
		if npcs := mo.NPCS().V(); npcs != wantNPCS {
			t.Fatalf("%s: num_preempted_cs = %d, want %d", step, npcs, wantNPCS)
		}
	}

	a.Region = regWait
	mo.schedSwitch(a, b) // preempted while still waiting
	marked("switched out waiting", false)
	mo.schedSwitch(b, c)
	marked("later switch, lock not yet handed over", false)
	handed = true // the predecessor hands the lock over while a is off-CPU
	mo.schedSwitch(c, b)
	marked("first switch after the handover", true)
	if mo.InCSPreemptions != 1 {
		t.Fatalf("InCSPreemptions = %d, want 1", mo.InCSPreemptions)
	}
	mo.schedSwitch(b, a)
	marked("rescheduled", false)

	// The handler misses a's switch-in (a dropped event): a stays pending
	// while it runs on into a window that is in CS but not a recheck
	// window, and must not be promoted from there.
	handed = false
	mo.schedSwitch(a, b)
	a.Region = regOther
	mo.schedSwitch(b, c)
	marked("pending thread outside its recheck window", false)
	a.Region = regWait
	handed = true
	mo.schedSwitch(c, b)
	marked("pending thread back in its window, lock handed over", true)
	mo.schedSwitch(b, a)
	marked("rescheduled again", false)

	// A switch-in the handler sees ends the re-examination.
	handed = false
	mo.schedSwitch(a, b)
	mo.schedSwitch(b, a)
	handed = true
	mo.schedSwitch(c, b)
	marked("handed over after the waiter was rescheduled", false)
	if mo.InCSPreemptions != 2 {
		t.Fatalf("InCSPreemptions = %d, want 2", mo.InCSPreemptions)
	}
}
