package sim

import (
	"testing"
)

func small(ncpu int) *Machine {
	cfg := Small(ncpu)
	cfg.Seed = 1
	return New(cfg)
}

func TestSingleThreadCompute(t *testing.T) {
	m := small(1)
	var end Time
	m.Spawn("w", func(p *Proc) {
		p.Compute(500)
		end = p.Now()
	})
	m.Run(1_000_000)
	// Dispatch costs one context switch (3000), then 500 ticks compute.
	want := m.cfg.Costs.CtxSwitch + 500
	if end != want {
		t.Fatalf("compute finished at %d, want %d", end, want)
	}
}

func TestLoadStoreValues(t *testing.T) {
	m := small(1)
	w := m.NewWord("w", 7)
	var got []uint64
	m.Spawn("w", func(p *Proc) {
		got = append(got, p.Load(w))
		p.Store(w, 9)
		got = append(got, p.Load(w))
	})
	m.Run(1_000_000)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("got %v, want [7 9]", got)
	}
}

func TestCASSemantics(t *testing.T) {
	m := small(1)
	w := m.NewWord("w", 0)
	var first, second uint64
	var th *Thread
	m.Spawn("w", func(p *Proc) {
		th = p.Thread()
		first = p.CAS(w, 0, 1)  // succeeds, returns 0
		second = p.CAS(w, 0, 2) // fails, returns 1
	})
	m.Run(1_000_000)
	if first != 0 || second != 1 || w.V() != 1 {
		t.Fatalf("CAS: first=%d second=%d val=%d", first, second, w.V())
	}
	if th.Reg != 1 {
		t.Fatalf("Reg should hold last CAS's prior value 1, got %d", th.Reg)
	}
}

func TestXchgAndAdd(t *testing.T) {
	m := small(1)
	w := m.NewWord("w", 5)
	var old, sum uint64
	m.Spawn("w", func(p *Proc) {
		old = p.Xchg(w, 10)
		sum = p.Add(w, -3)
	})
	m.Run(1_000_000)
	if old != 5 || sum != 7 || w.V() != 7 {
		t.Fatalf("old=%d sum=%d val=%d", old, sum, w.V())
	}
}

func TestAtomicityUnderContention(t *testing.T) {
	// N threads × K atomic increments must never lose an update.
	m := small(4)
	w := m.NewWord("ctr", 0)
	const n, k = 8, 200
	for i := 0; i < n; i++ {
		m.Spawn("inc", func(p *Proc) {
			for j := 0; j < k; j++ {
				p.Add(w, 1)
			}
		})
	}
	m.Run(100_000_000)
	if w.V() != n*k {
		t.Fatalf("lost updates: %d, want %d", w.V(), n*k)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, int64, int64) {
		m := small(2)
		w := m.NewWord("ctr", 0)
		for i := 0; i < 6; i++ {
			m.Spawn("w", func(p *Proc) {
				for {
					p.Add(w, 1)
					p.Compute(Time(100 + p.Rand().Intn(500)))
				}
			})
		}
		m.Run(2_000_000)
		return w.V(), m.TotalSwitches, m.TotalPreemptions
	}
	v1, s1, p1 := run()
	v2, s2, p2 := run()
	if v1 != v2 || s1 != s2 || p1 != p2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", v1, s1, p1, v2, s2, p2)
	}
	if p1 == 0 {
		t.Fatal("expected preemptions with 6 threads on 2 CPUs")
	}
}

func TestPreemptionRoundRobin(t *testing.T) {
	// 3 CPU-bound threads on 1 CPU must all make progress (round-robin).
	m := small(1)
	var ops [3]int64
	for i := 0; i < 3; i++ {
		i := i
		m.Spawn("spin", func(p *Proc) {
			for {
				p.Compute(1000)
				ops[i]++
			}
		})
	}
	m.Run(10_000_000)
	for i, v := range ops {
		if v == 0 {
			t.Fatalf("thread %d starved: ops=%v", i, ops)
		}
	}
}

func TestFutexWaitWake(t *testing.T) {
	m := small(2)
	w := m.NewWord("futex", 1)
	var order []string
	m.Spawn("waiter", func(p *Proc) {
		for p.Load(w) == 1 {
			if p.FutexWait(w, 1) {
				order = append(order, "woken")
			}
		}
		order = append(order, "exit")
	})
	m.Spawn("waker", func(p *Proc) {
		p.Compute(50_000)
		p.Store(w, 0)
		n := p.FutexWake(w, 1)
		if n != 1 {
			order = append(order, "nobody")
		}
	})
	m.Run(10_000_000)
	if len(order) != 2 || order[0] != "woken" || order[1] != "exit" {
		t.Fatalf("order = %v", order)
	}
}

func TestFutexEAGAIN(t *testing.T) {
	m := small(1)
	w := m.NewWord("futex", 5)
	var ok bool
	m.Spawn("w", func(p *Proc) {
		ok = p.FutexWait(w, 99) // value mismatch -> EAGAIN
	})
	quiesce := m.Run(1_000_000)
	if ok {
		t.Fatal("FutexWait should return false on value mismatch")
	}
	if quiesce >= 1_000_000 {
		t.Fatal("machine should quiesce early after thread exits")
	}
}

func TestFutexFIFOWake(t *testing.T) {
	m := small(4)
	w := m.NewWord("futex", 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		m.Spawn("waiter", func(p *Proc) {
			// Stagger arrival so the FIFO order is deterministic.
			p.Compute(Time(1000 * (i + 1)))
			p.FutexWait(w, 1)
			order = append(order, i)
		})
	}
	m.Spawn("waker", func(p *Proc) {
		p.Compute(100_000)
		for k := 0; k < 3; k++ {
			p.FutexWake(w, 1)
			p.Compute(20_000)
		}
	})
	m.Run(10_000_000)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order %v, want [0 1 2]", order)
	}
}

// runPanic runs m and returns the value it panicked with (nil if none).
func runPanic(m *Machine, until Time) (r any) {
	defer func() { r = recover() }()
	m.Run(until)
	return nil
}

func TestSpinOnReleasedByStore(t *testing.T) {
	// Nils in a watch set are ignored; a set with no word to watch
	// panics, and the panic reaches Run's caller.
	for _, tc := range []struct {
		name   string
		watch  func(w *Word) []*Word
		panics bool
	}{
		{"word", func(w *Word) []*Word { return []*Word{w} }, false},
		{"word-after-nil", func(w *Word) []*Word { return []*Word{nil, w} }, false},
		{"all-nil", func(*Word) []*Word { return []*Word{nil, nil} }, true},
		{"empty", func(*Word) []*Word { return nil }, true},
	} {
		m := small(2)
		w := m.NewWord("flag", 1)
		watch := tc.watch(w)
		var spun bool
		m.Spawn("spinner", func(p *Proc) {
			p.SpinOn(func() bool { return w.V() == 1 }, watch...)
			spun = true
		})
		m.Spawn("releaser", func(p *Proc) {
			p.Compute(30_000)
			p.Store(w, 0)
		})
		r := runPanic(m, 10_000_000)
		switch {
		case tc.panics && r == nil:
			t.Errorf("%s: SpinOn with no word to watch did not panic", tc.name)
		case !tc.panics && r != nil:
			t.Errorf("%s: Run panicked: %v", tc.name, r)
		case !tc.panics && !spun:
			t.Errorf("%s: spinner never released", tc.name)
		}
	}
}

func TestSpinOnMaxTimeout(t *testing.T) {
	m := small(1)
	w := m.NewWord("flag", 1)
	var ok bool
	var elapsed Time
	m.Spawn("spinner", func(p *Proc) {
		start := p.Now()
		ok = p.SpinOnMax(func() bool { return w.V() == 1 }, 5000, w)
		elapsed = p.Now() - start
	})
	m.Run(1_000_000)
	if ok {
		t.Fatal("spin should have timed out")
	}
	if elapsed < 5000 || elapsed > 6000 {
		t.Fatalf("timeout after %d ticks, want ~5000", elapsed)
	}

	// An all-nil watch set panics even with a zero budget, which would
	// otherwise return without spinning.
	m = small(1)
	m.Spawn("spinner", func(p *Proc) {
		p.SpinOnMax(func() bool { return true }, 0, nil)
	})
	if runPanic(m, 1_000_000) == nil {
		t.Fatal("SpinOnMax with an all-nil watch set did not panic")
	}
}

func TestSpinnerSurvivesPreemption(t *testing.T) {
	// One CPU: spinner and a releaser must interleave; the spinner is
	// preempted mid-spin, the releaser stores, the spinner must then exit
	// its spin after being rescheduled.
	m := small(1)
	w := m.NewWord("flag", 1)
	var spun bool
	m.Spawn("spinner", func(p *Proc) {
		p.SpinOn(func() bool { return w.V() == 1 }, w)
		spun = true
	})
	m.Spawn("releaser", func(p *Proc) {
		p.Compute(5_000)
		p.Store(w, 0)
	})
	m.Run(50_000_000)
	if !spun {
		t.Fatal("preempted spinner never observed the release")
	}
}

func TestSpinItersAccounted(t *testing.T) {
	m := small(2)
	w := m.NewWord("flag", 1)
	var th *Thread
	m.Spawn("spinner", func(p *Proc) {
		th = p.Thread()
		p.SpinOn(func() bool { return w.V() == 1 }, w)
	})
	m.Spawn("releaser", func(p *Proc) {
		p.Compute(80_000)
		p.Store(w, 0)
	})
	m.Run(10_000_000)
	// ~80k ticks of spinning at Pause=8 → ~10k iterations.
	if th.SpinIters < 5_000 || th.SpinIters > 20_000 {
		t.Fatalf("spin iterations %d, want ≈10000", th.SpinIters)
	}
}

func TestYield(t *testing.T) {
	m := small(1)
	var order []int
	m.Spawn("a", func(p *Proc) {
		p.Compute(100)
		p.Yield()
		order = append(order, 0)
	})
	m.Spawn("b", func(p *Proc) {
		p.Compute(100)
		order = append(order, 1)
	})
	m.Run(10_000_000)
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("yield order %v, want [1 0]", order)
	}
}

func TestSleep(t *testing.T) {
	m := small(2)
	var woke Time
	m.Spawn("s", func(p *Proc) {
		p.Sleep(40_000)
		woke = p.Now()
	})
	m.Run(1_000_000)
	if woke < 40_000 {
		t.Fatalf("woke too early: %d", woke)
	}
	if woke > 60_000 {
		t.Fatalf("woke too late: %d", woke)
	}
}

func TestCSCounterOps(t *testing.T) {
	m := small(1)
	var during, after int32
	var th *Thread
	m.Spawn("w", func(p *Proc) {
		th = p.Thread()
		p.IncCS()
		during = th.CSCounter
		p.DecCS()
		after = th.CSCounter
	})
	m.Run(1_000_000)
	if during != 1 || after != 0 {
		t.Fatalf("cs counter during=%d after=%d", during, after)
	}
}

func TestSchedSwitchHookFires(t *testing.T) {
	m := small(1)
	var switches int
	var sawPrev, sawNext bool
	m.RegisterSwitchHook(func(prev, next *Thread) {
		switches++
		if prev != nil {
			sawPrev = true
		}
		if next != nil {
			sawNext = true
		}
	})
	for i := 0; i < 2; i++ {
		m.Spawn("w", func(p *Proc) {
			for {
				p.Compute(1000)
			}
		})
	}
	m.Run(1_000_000)
	if switches == 0 || !sawPrev || !sawNext {
		t.Fatalf("hook coverage: switches=%d prev=%v next=%v", switches, sawPrev, sawNext)
	}
}

func TestRunnableTimeline(t *testing.T) {
	cfg := Small(2)
	cfg.Seed = 1
	cfg.RecordRunnable = true
	m := New(cfg)
	w := m.NewWord("futex", 1)
	for i := 0; i < 4; i++ {
		m.Spawn("w", func(p *Proc) {
			p.FutexWait(w, 1) // all block
		})
	}
	m.Run(1_000_000)
	tl := m.RunnableTimeline()
	if tl.Len() == 0 {
		t.Fatal("timeline empty")
	}
	_, max, ok := tl.MinMax(0, 1_000_000)
	if !ok || max != 4 {
		t.Fatalf("max runnable %d, want 4", max)
	}
	if tl.At(999_999) != 0 {
		t.Fatalf("all threads blocked at the end, runnable=%d", tl.At(999_999))
	}
}

func TestTimesliceExtension(t *testing.T) {
	// With the extension the holder gets extra time before preemption.
	runWith := func(ext Time) int64 {
		cfg := Small(1)
		cfg.Seed = 1
		cfg.Costs.SliceExt = ext
		m := New(cfg)
		var holder *Thread
		m.Spawn("holder", func(p *Proc) {
			holder = p.Thread()
			p.SetExtendSlice(true)
			for {
				p.Compute(1000)
			}
		})
		m.Spawn("other", func(p *Proc) {
			for {
				p.Compute(1000)
			}
		})
		m.Run(5_000_000)
		return holder.Preemptions
	}
	with := runWith(10_000)
	without := runWith(0)
	if with > without {
		t.Fatalf("extension should not increase preemptions: with=%d without=%d", with, without)
	}
}

func TestCacheCosts(t *testing.T) {
	cfg := Small(2)
	cfg.Seed = 1
	cfg.Costs.Jitter = 0 // assert exact costs
	m := New(cfg)
	w := m.NewWord("w", 0)
	var local, afterRemote Time
	done := m.NewWord("done", 0)
	m.Spawn("a", func(p *Proc) {
		p.Store(w, 1) // take ownership
		t0 := p.Now()
		p.Store(w, 2) // exclusive store: cheap
		local = p.Now() - t0
		p.Store(done, 1)
		p.SpinOn(func() bool { return done.V() != 2 }, done)
		t0 = p.Now()
		p.Load(w) // line stolen by b: remote
		afterRemote = p.Now() - t0
	})
	m.Spawn("b", func(p *Proc) {
		p.SpinOn(func() bool { return done.V() != 1 }, done)
		p.Store(w, 3)
		p.Store(done, 2)
	})
	m.Run(50_000_000)
	if local != m.cfg.Costs.StoreHit {
		t.Fatalf("exclusive store cost %d, want %d", local, m.cfg.Costs.StoreHit)
	}
	if afterRemote != m.cfg.Costs.LoadRemote {
		t.Fatalf("post-steal load cost %d, want %d", afterRemote, m.cfg.Costs.LoadRemote)
	}
}

func TestSharedLineWords(t *testing.T) {
	cfg := Small(2)
	cfg.Seed = 1
	cfg.Costs.Jitter = 0 // assert exact costs
	m := New(cfg)
	ws := m.NewWords("line", 2)
	if ws[0].lineID != ws[1].lineID {
		t.Fatal("NewWords must share one cache line")
	}
	var second Time
	m.Spawn("a", func(p *Proc) {
		p.Load(ws[0]) // pulls the line
		t0 := p.Now()
		p.Load(ws[1]) // same line: hit
		second = p.Now() - t0
	})
	m.Run(1_000_000)
	if second != m.cfg.Costs.LoadHit {
		t.Fatalf("same-line load cost %d, want hit %d", second, m.cfg.Costs.LoadHit)
	}
}

func TestShutdownKillsBlockedThreads(t *testing.T) {
	m := small(1)
	w := m.NewWord("futex", 1)
	reached := false
	m.Spawn("stuck", func(p *Proc) {
		p.FutexWait(w, 1)
		reached = true // never: nobody wakes us
	})
	m.Run(100_000)
	if reached {
		t.Fatal("blocked thread should not have continued")
	}
	if got := m.Threads()[0].State(); got != StateDone && got != StateBlocked {
		t.Fatalf("unexpected final state %v", got)
	}
}

func TestOversubscriptionPreempts(t *testing.T) {
	// More CPU-bound threads than CPUs ⇒ many preemptions; equal ⇒ none.
	run := func(n int) int64 {
		m := small(2)
		for i := 0; i < n; i++ {
			m.Spawn("w", func(p *Proc) {
				for {
					p.Compute(500)
				}
			})
		}
		m.Run(2_000_000)
		return m.TotalPreemptions
	}
	if p := run(2); p != 0 {
		t.Fatalf("no oversubscription but %d preemptions", p)
	}
	if p := run(5); p == 0 {
		t.Fatal("oversubscription should cause preemptions")
	}
}

func TestRegionAndRegAtPreemption(t *testing.T) {
	// A thread preempted between ops keeps its Region and Reg visible to
	// the hook.
	const myRegion Region = 7
	cfg := Small(1)
	cfg.Seed = 1
	cfg.Costs.Timeslice = 5_000 // preempt quickly
	cfg.Costs.MinSlice = 1_000
	m := New(cfg)
	w := m.NewWord("w", 0)
	var observed bool
	m.RegisterSwitchHook(func(prev, next *Thread) {
		if prev != nil && prev.Region == myRegion && prev.Reg == 0 {
			observed = true
		}
	})
	m.Spawn("locker", func(p *Proc) {
		p.SetRegion(myRegion)
		p.Xchg(w, 1) // Reg = 0 (prior value)
		for {
			p.Compute(500)
		}
	})
	m.Spawn("other", func(p *Proc) {
		for {
			p.Compute(500)
		}
	})
	m.Run(1_000_000)
	if !observed {
		t.Fatal("hook never observed Region+Reg of preempted thread")
	}
}

func TestRegionAfterAppliedAtomically(t *testing.T) {
	// XchgTo's region transition must be visible immediately after the op,
	// with no window where the old region persists past the effect.
	m := small(1)
	w := m.NewWord("w", 0)
	var regionAfterOp Region
	m.Spawn("t", func(p *Proc) {
		p.SetRegion(3)
		p.XchgTo(w, 1, RegionNone)
		regionAfterOp = p.Thread().Region
	})
	m.Run(1_000_000)
	if regionAfterOp != RegionNone {
		t.Fatalf("region after XchgTo = %d, want RegionNone", regionAfterOp)
	}
	if w.V() != 1 {
		t.Fatalf("xchg effect lost: %d", w.V())
	}
}

func TestStoreToRegion(t *testing.T) {
	m := small(1)
	w := m.NewWord("w", 0)
	var r Region
	m.Spawn("t", func(p *Proc) {
		p.SetRegion(5)
		p.StoreTo(w, 9, RegionNone)
		r = p.Thread().Region
	})
	m.Run(1_000_000)
	if r != RegionNone || w.V() != 9 {
		t.Fatalf("StoreTo: region=%d val=%d", r, w.V())
	}
}

func TestKernelStoreInvalidates(t *testing.T) {
	m := small(1)
	w := m.NewWord("w", 0)
	var cost Time
	phase := m.NewWord("phase", 0)
	m.RegisterSwitchHook(func(prev, next *Thread) {
		if phase.V() == 1 {
			m.KernelStore(phase, 2)
			m.KernelStore(w, 42)
		}
	})
	m.Spawn("t", func(p *Proc) {
		p.Load(w)
		p.Store(phase, 1)
		p.Yield() // yields; but alone, keeps CPU — force switch via sleep
		p.Sleep(10_000)
		t0 := p.Now()
		v := p.Load(w)
		cost = p.Now() - t0
		if v != 42 {
			panic("kernel store lost")
		}
	})
	m.Run(1_000_000)
	if cost != m.cfg.Costs.LoadRemote {
		t.Fatalf("load after kernel store cost %d, want remote %d", cost, m.cfg.Costs.LoadRemote)
	}
}

func TestSpawnPanicsAfterRun(t *testing.T) {
	m := small(1)
	m.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn after Run should panic")
		}
	}()
	m.Spawn("late", func(p *Proc) {})
}

func TestQuiesceTimeReported(t *testing.T) {
	m := small(1)
	m.Spawn("short", func(p *Proc) { p.Compute(100) })
	q := m.Run(1_000_000)
	if q >= 1_000_000 {
		t.Fatalf("quiesce time %d should be well before the horizon", q)
	}
}

// attachTick installs a self-rescheduling weak tick every period ticks,
// the shape of the flight recorder's window sampler.
func attachTick(m *Machine, period Time) {
	var tick func()
	tick = func() { m.Schedule(m.Now()+period, tick) }
	m.Schedule(period, tick)
}

// TestWeakEventsDoNotBlockDrain: Machine.Schedule events are passive
// instrumentation and must never keep the machine alive. A
// self-rescheduling sampler tick would otherwise pin the event queue
// non-empty forever, turning every early quiesce into a full run to the
// horizon — and silently defeating deadlock detection.
func TestWeakEventsDoNotBlockDrain(t *testing.T) {
	run := func(tick bool) Time {
		m := small(1)
		m.Spawn("w", func(p *Proc) { p.Compute(500) })
		if tick {
			attachTick(m, 1_000)
		}
		return m.Run(1_000_000)
	}
	plain := run(false)
	if plain >= 1_000_000 {
		t.Fatalf("workload ran to the horizon (quiesced %d); want early drain", plain)
	}
	if ticked := run(true); ticked != plain {
		t.Fatalf("sampler tick moved the quiesce time: %d with tick, %d without", ticked, plain)
	}
}

// TestWeakEventsDoNotMaskDeadlock: a deadlocked run with a sampler
// attached must still drain before the horizon and report Deadlocked.
func TestWeakEventsDoNotMaskDeadlock(t *testing.T) {
	m := small(1)
	w := m.NewWord("w", 1)
	m.Spawn("stuck", func(p *Proc) {
		p.FutexWait(w, 1) // nobody will ever wake this
	})
	attachTick(m, 1_000)
	q := m.Run(1_000_000)
	if q >= 1_000_000 {
		t.Fatalf("deadlocked run reached the horizon (quiesced %d)", q)
	}
	if !m.Deadlocked() {
		t.Fatal("Deadlocked() = false for a blocked thread under a sampler tick")
	}
}

func TestLatencyReservoir(t *testing.T) {
	m := small(1)
	var th *Thread
	m.Spawn("w", func(p *Proc) {
		th = p.Thread()
		for i := 1; i <= 3000; i++ {
			p.RecordLatency(Time(i))
			p.Compute(1)
		}
	})
	m.Run(100_000_000)
	if th.LatCount != 3000 {
		t.Fatalf("LatCount = %d, want 3000", th.LatCount)
	}
	s := th.LatencySamples()
	if len(s) == 0 || len(s) > latSampleCap {
		t.Fatalf("reservoir size %d out of range", len(s))
	}
	// Samples must be genuine recorded values spanning the range.
	var min, max int64 = s[0], s[0]
	for _, v := range s {
		if v < 1 || v > 3000 {
			t.Fatalf("sample %d outside recorded range", v)
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min > 300 || max < 2200 {
		t.Fatalf("reservoir skewed: min=%d max=%d", min, max)
	}
}
