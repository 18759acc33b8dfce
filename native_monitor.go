package flexguard

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// NativeMonitor approximates the FlexGuard Preemption Monitor for real Go
// programs. The kernel-side monitor detects critical-section preemptions
// synchronously from the sched_switch tracepoint; a pure-Go process cannot
// observe preemptions at all, so this monitor uses the best available
// proxy: it periodically sleeps for a short, fixed interval and measures
// the overshoot. When the scheduler cannot run a trivial goroutine on
// time, runnable work exceeds hardware capacity — the condition under
// which FlexGuard's policy switches waiters from spinning to blocking.
//
// This is, unavoidably, a heuristic — exactly the kind the paper argues
// against — which is why the faithful reproduction lives on the simulator.
// The native adapter still implements the FlexGuard *policy*: all Mutex
// waiters switch between busy-waiting and blocking together, driven by one
// process-wide signal rather than per-lock guesses.
type NativeMonitor struct {
	interval  time.Duration
	threshold time.Duration
	over      atomic.Bool
	stop      chan struct{}
	stopOnce  sync.Once
	done      chan struct{} // closed when the sampling loop has exited
	// trips counts healthy→oversubscribed transitions; untrips the
	// transitions back (introspection; see Snapshot).
	trips   atomic.Int64
	untrips atomic.Int64
	// overshoot records how late each probe woke (ns) — the raw signal
	// behind the verdict — one sample per probe. mu guards it: the
	// sampling loop records while Snapshot reads.
	mu        sync.Mutex
	overshoot obs.Histogram
}

// MonitorConfig tunes StartMonitor.
type MonitorConfig struct {
	// Interval between probes (default 2ms).
	Interval time.Duration
	// Threshold overshoot that flags oversubscription (default 4ms).
	Threshold time.Duration
}

// StartMonitor launches the sampling goroutine. Call Stop when done.
func StartMonitor(c MonitorConfig) *NativeMonitor {
	if c.Interval == 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.Threshold == 0 {
		c.Threshold = 4 * time.Millisecond
	}
	m := &NativeMonitor{
		interval:  c.Interval,
		threshold: c.Threshold,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go m.loop()
	return m
}

func (m *NativeMonitor) loop() {
	defer close(m.done)
	consecutive := 0
	for {
		start := time.Now()
		select {
		case <-m.stop:
			return
		case <-time.After(m.interval):
		}
		overshoot := time.Since(start) - m.interval
		m.mu.Lock()
		m.overshoot.Record(max(overshoot.Nanoseconds(), 0))
		m.mu.Unlock()
		if overshoot > m.threshold {
			consecutive++
			if consecutive >= 2 && !m.over.Load() {
				m.over.Store(true)
				m.trips.Add(1)
			}
		} else {
			consecutive = 0
			if m.over.Load() {
				m.over.Store(false)
				m.untrips.Add(1)
			}
		}
	}
}

// Oversubscribed reports the current process-wide verdict.
func (m *NativeMonitor) Oversubscribed() bool { return m.over.Load() }

// Trips returns how many times the monitor switched to the
// oversubscribed state.
func (m *NativeMonitor) Trips() int64 { return m.trips.Load() }

// Stop terminates the sampling goroutine and waits for it to exit, so
// no probe lands after Stop returns. A probe in progress is abandoned,
// so Stop returns at once even for a long interval. Idempotent.
func (m *NativeMonitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// force overrides the verdict (tests only).
func (m *NativeMonitor) force(over bool) { m.over.Store(over) }

var (
	defaultMonitorOnce sync.Once
	defaultMonitor     *NativeMonitor
)

// DefaultMonitor returns the lazily started process-wide monitor shared by
// Mutexes created without an explicit one.
func DefaultMonitor() *NativeMonitor {
	defaultMonitorOnce.Do(func() {
		defaultMonitor = StartMonitor(MonitorConfig{})
	})
	return defaultMonitor
}
