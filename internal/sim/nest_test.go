package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// gid returns the id of the calling goroutine.
func gid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// crashAt is a crash injector that kills victim at its n-th instruction
// boundary and perturbs nothing else.
type crashAt struct {
	victim *Thread
	n      int
}

func (c *crashAt) SliceGrant(_ *Thread, s Time) Time  { return s }
func (c *crashAt) PreemptAtBoundary(*Thread) bool     { return false }
func (c *crashAt) WakeDelay(_ *Thread, lat Time) Time { return lat }
func (c *crashAt) SpuriousWakeDelay(*Thread) Time     { return 0 }
func (c *crashAt) CrashParkedDelay(*Thread) Time      { return 0 }
func (c *crashAt) CrashParkedOutcome(*Thread, bool)   {}
func (c *crashAt) CrashAtBoundary(t *Thread) bool {
	if t != c.victim {
		return false
	}
	c.n--
	return c.n == 0
}

// depth counts the thread coroutines stacked above Run's goroutine.
func depth(m *Machine) int {
	n := 0
	for _, th := range m.threads {
		if th.onStack {
			n++
		}
	}
	return n
}

// goroutineBase returns the goroutine count once it has stopped
// changing: a goroutine an earlier test started may still be exiting.
func goroutineBase() int {
	n := runtime.NumGoroutine()
	for stable, deadline := 0, time.Now().Add(5*time.Second); stable < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if c := runtime.NumGoroutine(); c != n {
			n, stable = c, 0
		} else {
			stable++
		}
	}
	return n
}

// goroutinesBackTo polls until the goroutine count returns to base or a
// deadline passes, and returns the last count: an exited thread's
// goroutine may take a moment to go, a leaked one never does.
func goroutinesBackTo(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n != base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// checkUnwound fails unless m's coroutine stack is empty, the handoffs
// cost fewer switches than a loop on Run's goroutine alone would (two
// per resume), and every thread goroutine has exited since the count
// base was taken.
func checkUnwound(t *testing.T, m *Machine, base int) {
	t.Helper()
	if d := depth(m); d != 0 {
		t.Errorf("%d threads still on the coroutine stack after Run, want 0", d)
	}
	if m.coroSwitches >= 2*m.resumes {
		t.Errorf("%d switches for %d resumes, want fewer than two per resume", m.coroSwitches, m.resumes)
	}
	if n := goroutinesBackTo(base); n != base {
		t.Errorf("%d goroutines after Run, want %d", n, base)
	}
}

// TestNestedHandoff drives the coroutine stack through its edge cases:
// exits, kills and panics while threads are stacked.
func TestNestedHandoff(t *testing.T) {
	t.Run("exit", func(t *testing.T) {
		// Three threads on three contexts resume round-robin. The one that
		// stops early exits with the other two stacked below it, and they
		// run on to the end.
		base := goroutineBase()
		m := small(3)
		ops := make([]int, 3)
		exitDepth := -1
		for i, n := range []int{200, 200, 50} {
			m.Spawn("w", func(p *Proc) {
				for ops[i] < n {
					p.Compute(100)
					ops[i]++
				}
				if i == 2 {
					exitDepth = depth(m)
				}
			})
		}
		m.Run(10_000_000)
		if exitDepth < 3 {
			t.Errorf("early thread exited at stack depth %d, want it above both others (3)", exitDepth)
		}
		if ops[0] != 200 || ops[1] != 200 || ops[2] != 50 {
			t.Errorf("ops = %v, want [200 200 50]", ops)
		}
		for _, th := range m.threads {
			if th.state != StateDone {
				t.Errorf("thread %d state %v, want done", th.id, th.state)
			}
		}
		checkUnwound(t, m, base)
	})

	t.Run("kill", func(t *testing.T) {
		// The victim runs short inline legs beside a long one and is
		// crashed at an inline boundary: it dies holding the turn, and its
		// goroutine fires the next event before handing the turn on.
		base := goroutineBase()
		m := small(2)
		longDone := 0
		m.Spawn("long", func(p *Proc) {
			for ; longDone < 20; longDone++ {
				p.Compute(1000)
			}
		})
		var victimG uint64
		victim := m.Spawn("victim", func(p *Proc) {
			victimG = gid()
			for {
				p.Compute(10)
			}
		})
		m.SetFaultInjector(&crashAt{victim: victim, n: 30})
		var killedOnStack, killedOnOwn bool
		var probeG uint64
		m.RegisterKillHook(func(th *Thread) {
			killedOnStack, killedOnOwn = th.onStack, gid() == victimG
			m.ScheduleWork(m.Now(), func() { probeG = gid() })
		})
		m.Run(10_000_000)
		if victim.state != StateDead {
			t.Fatalf("victim state %v, want dead", victim.state)
		}
		if !killedOnStack || !killedOnOwn {
			t.Errorf("victim killed on the stack %v, on its own goroutine %v; want both", killedOnStack, killedOnOwn)
		}
		if probeG != victimG {
			t.Errorf("the event after the kill fired on goroutine %d, want the dead victim's %d", probeG, victimG)
		}
		if longDone != 20 {
			t.Errorf("survivor ran %d legs, want 20", longDone)
		}
		checkUnwound(t, m, base)
	})

	for _, where := range []string{"body", "callback"} {
		t.Run("panic-"+where, func(t *testing.T) {
			// Four threads round-robin; the panic is thrown with at least
			// three threads stacked and must reach Run's caller unchanged,
			// with every thread goroutine gone.
			base := goroutineBase()
			m := small(4)
			want := fmt.Errorf("deep %s panic", where)
			for range 4 {
				m.Spawn("w", func(p *Proc) {
					for {
						p.Compute(100)
						if where == "body" && depth(m) >= 3 {
							panic(want)
						}
					}
				})
			}
			var probe func()
			probe = func() {
				if depth(m) >= 3 {
					panic(want)
				}
				m.ScheduleWork(m.Now()+37, probe)
			}
			if where == "callback" {
				m.ScheduleWork(1000, probe)
			}
			defer func() {
				if r := recover(); r != want {
					t.Errorf("Run panicked with %v, want %v", r, want)
				}
				if n := goroutinesBackTo(base); n != base {
					t.Errorf("%d goroutines after the recovered panic, want %d", n, base)
				}
			}()
			m.Run(10_000_000)
		})
	}
}

// TestPanicStopsThreads: when a thread body panics, Run stops every
// other live thread before the panic reaches its caller, so no coroutine
// is left parked in its yield. Four threads share two contexts, so when
// thread 0 panics after ten compute legs the others are parked mid-body,
// queued or never dispatched.
func TestPanicStopsThreads(t *testing.T) {
	base := goroutineBase()
	m := small(2)
	want := errors.New("thread 0 panics")
	for i := range 4 {
		m.Spawn("w", func(p *Proc) {
			for legs := 0; ; legs++ {
				if i == 0 && legs == 10 {
					panic(want)
				}
				p.Compute(100)
			}
		})
	}
	func() {
		defer func() {
			if r := recover(); r != want {
				t.Errorf("panicked with %v, want %v", r, want)
			}
		}()
		m.Run(10_000_000)
	}()
	if n := goroutinesBackTo(base); n != base {
		t.Errorf("%d goroutines after the recovered panic, want %d", n, base)
	}
}

// BenchmarkHandoff measures the host cost of one continuation when every
// op goes through the event queue: n threads on n contexts run equal
// compute legs, so no leg completes inline and the threads are resumed
// in a fixed round-robin. With 2 threads each resume goes to the thread
// of the resume before last, the ping-pong a nested handoff serves in
// one switch. With 26 every thread is resumed 26 resumes apart, and
// reaching it means unwinding through the 25 stacked above it, so
// nesting cannot help. ns/op is per continuation.
func BenchmarkHandoff(b *testing.B) {
	for _, n := range []int{2, 26} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			m := New(benchCfg(n))
			left := b.N
			for range n {
				m.Spawn("h", func(p *Proc) {
					for ; left > 0; left-- {
						p.Compute(100)
					}
				})
			}
			b.ResetTimer()
			m.Run(1 << 62)
			b.StopTimer()
			b.ReportMetric(float64(m.coroSwitches)/float64(m.resumes), "switches/resume")
		})
	}
}
