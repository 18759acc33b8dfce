package flexguard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMutexMutualExclusion: plain counter race under the native mutex.
func TestMutexMutualExclusion(t *testing.T) {
	mon := StartMonitor(MonitorConfig{})
	defer mon.Stop()
	m := NewMutex(mon)
	var counter int
	var wg sync.WaitGroup
	const goroutines, iters = 8, 2000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("lost updates: %d, want %d", counter, goroutines*iters)
	}
}

// TestMutexBlockingMode: with the monitor forced oversubscribed, waiters
// must block (not burn CPU) and the lock must stay correct and live.
func TestMutexBlockingMode(t *testing.T) {
	mon := StartMonitor(MonitorConfig{Interval: time.Hour}) // inert sampler
	defer mon.Stop()
	mon.force(true)
	m := NewMutex(mon)
	var counter int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("blocking mode deadlocked")
	}
	if counter != 8*500 {
		t.Fatalf("lost updates in blocking mode: %d", counter)
	}
}

// TestMutexModeTransitions: flipping the monitor back and forth while the
// lock is contended must not lose mutual exclusion or wakeups.
func TestMutexModeTransitions(t *testing.T) {
	mon := StartMonitor(MonitorConfig{Interval: time.Hour})
	defer mon.Stop()
	m := NewMutex(mon)
	var counter int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		mon.force(i%2 == 0)
		time.Sleep(2 * time.Millisecond)
	}
	mon.force(false)
	close(stop)
	wg.Wait()
	if counter == 0 {
		t.Fatal("no progress through mode transitions")
	}
}

// TestMutexTryLock: semantics of the non-blocking path.
func TestMutexTryLock(t *testing.T) {
	m := NewMutex(nil)
	if !m.TryLock() {
		t.Fatal("TryLock on a free mutex failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on a held mutex succeeded")
	}
	m.Unlock()
	if !m.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	m.Unlock()
}

// TestMutexUnlockPanics: unlocking an unlocked mutex is a programming
// error.
func TestMutexUnlockPanics(t *testing.T) {
	m := NewMutex(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unlocked mutex should panic")
		}
	}()
	m.Unlock()
}

// TestMonitorDetectsOversubscription: flooding the scheduler with busy
// goroutines should eventually trip the monitor. Timing-sensitive, so the
// test only requires the trip under heavy, sustained load and skips on
// uniprocessors.
func TestMonitorDetectsOversubscription(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 P")
	}
	mon := StartMonitor(MonitorConfig{Interval: time.Millisecond, Threshold: 2 * time.Millisecond})
	defer mon.Stop()
	stop := make(chan struct{})
	var spun atomic.Int64
	for g := 0; g < runtime.GOMAXPROCS(0)*8; g++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					for i := 0; i < 1_000_000; i++ {
						spun.Add(1)
					}
				}
			}
		}()
	}
	deadline := time.After(10 * time.Second)
	for {
		if mon.Oversubscribed() {
			break
		}
		select {
		case <-deadline:
			close(stop)
			t.Skip("scheduler pressure not observable in this environment")
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(stop)
	if mon.Trips() == 0 {
		t.Fatal("monitor tripped but recorded no transitions")
	}
}

// TestMonitorSnapshot: Snapshot reads the overshoot histogram while the
// sampling loop records into it (the -race run covers the lock that
// guards it), every probe leaves one overshoot sample, and the
// percentiles are ordered.
func TestMonitorSnapshot(t *testing.T) {
	mon := StartMonitor(MonitorConfig{Interval: time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	var s MonitorSnapshot
	for s.Probes < 10 && time.Now().Before(deadline) {
		s = mon.Snapshot()
		if s.Overshoot.Count != s.Probes {
			t.Fatalf("mid-run snapshot: %d overshoot samples for %d probes", s.Overshoot.Count, s.Probes)
		}
		time.Sleep(200 * time.Microsecond)
	}
	mon.Stop()
	s = mon.Snapshot()
	if s.Probes < 10 {
		t.Fatalf("only %d probes in 5 s at a 1 ms interval", s.Probes)
	}
	if o := s.Overshoot; o.Count != s.Probes || o.P50NS > o.P99NS || o.P99NS > o.MaxNS {
		t.Fatalf("after Stop: %d probes, overshoot %+v; want one sample per probe and p50 <= p99 <= max", s.Probes, o)
	}
}

// TestMonitorStopIdempotent: Stop twice is fine.
func TestMonitorStopIdempotent(t *testing.T) {
	mon := StartMonitor(MonitorConfig{})
	mon.Stop()
	mon.Stop()
}

// TestMonitorStopWaitsForLoop: once Stop returns the sampling loop has
// exited, so no probe lands after it.
func TestMonitorStopWaitsForLoop(t *testing.T) {
	mon := StartMonitor(MonitorConfig{Interval: time.Millisecond})
	time.Sleep(5 * time.Millisecond)
	mon.Stop()
	before := mon.Snapshot().Probes
	time.Sleep(5 * time.Millisecond)
	if after := mon.Snapshot().Probes; after != before {
		t.Fatalf("probes after Stop: %d, then %d 5ms later", before, after)
	}
}

// TestDefaultMonitorSingleton: the shared monitor is one instance.
func TestDefaultMonitorSingleton(t *testing.T) {
	if DefaultMonitor() != DefaultMonitor() {
		t.Fatal("DefaultMonitor must return one instance")
	}
}

// TestSimulationFacade: the public simulation API end to end.
func TestSimulationFacade(t *testing.T) {
	s, err := NewSimulation(SimConfig{CPUs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	l := s.NewLock("L")
	bl, err := s.NewBaselineLock("mcs", "M")
	if err != nil {
		t.Fatal(err)
	}
	ctr := s.M.NewWord("ctr", 0)
	var done uint64
	for i := 0; i < 6; i++ {
		s.Spawn("w", func(p *Proc) {
			for p.Now() < 4_000_000 {
				l.Lock(p)
				bl.Lock(p)
				v := p.Load(ctr)
				p.Compute(50)
				p.Store(ctr, v+1)
				bl.Unlock(p)
				l.Unlock(p)
				done++
			}
		})
	}
	s.Run(6_000_000)
	if ctr.V() != done || done == 0 {
		t.Fatalf("facade run broken: ctr=%d done=%d", ctr.V(), done)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	for _, alg := range []string{"bogus", "flexguard", "flexguard-ext", "flexguard/per-lock", "tas-noatomic"} {
		if _, err := s.NewBaselineLock(alg, "x"); err == nil {
			t.Fatalf("NewBaselineLock(%q) should error", alg)
		}
	}
	if _, err := s.NewBaselineLock("robust/mcs", "R"); err != nil {
		t.Fatal(err)
	}
	if len(Algorithms()) < 10 {
		t.Fatalf("algorithm list too short: %v", Algorithms())
	}
}

// TestSimulationProfiles: named profiles resolve.
func TestSimulationProfiles(t *testing.T) {
	s, err := NewSimulation(SimConfig{Profile: "intel"})
	if err != nil {
		t.Fatal(err)
	}
	if s.M.Config().NumCPUs != 104 {
		t.Fatalf("intel profile has %d contexts, want 104", s.M.Config().NumCPUs)
	}
	if _, err := NewSimulation(SimConfig{Profile: "vax"}); err == nil {
		t.Fatal("unknown profile should error")
	}
}
