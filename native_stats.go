package flexguard

import "encoding/json"

// Telemetry snapshots for the native adapter. Snapshot types implement
// fmt.Stringer with JSON output, so they can be published through
// expvar with expvar.Func (this package deliberately does not import
// expvar itself — it would pull in net/http):
//
//	expvar.Publish("flexguard.monitor", expvar.Func(func() any {
//		return mon.Snapshot()
//	}))

// OvershootStats summarizes the monitor's probe-overshoot histogram
// (how late the sampling goroutine woke up, in nanoseconds). Quantiles
// come from a log2-bucket histogram and are accurate to within a factor
// of two.
type OvershootStats struct {
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	MaxNS  int64   `json:"max_ns"`
	P50NS  int64   `json:"p50_ns"`
	P99NS  int64   `json:"p99_ns"`
}

// MonitorSnapshot is a point-in-time view of a NativeMonitor's
// telemetry.
type MonitorSnapshot struct {
	Oversubscribed bool           `json:"oversubscribed"`
	Trips          int64          `json:"trips"`
	Untrips        int64          `json:"untrips"`
	Probes         int64          `json:"probes"`
	Overshoot      OvershootStats `json:"overshoot"`
}

// String implements fmt.Stringer (and the expvar.Var contract) as JSON.
func (s MonitorSnapshot) String() string {
	b, _ := json.Marshal(s)
	return string(b)
}

// Snapshot returns the monitor's current telemetry. Safe to call
// concurrently with the sampling loop.
func (m *NativeMonitor) Snapshot() MonitorSnapshot {
	m.mu.Lock()
	h := m.overshoot
	m.mu.Unlock()
	return MonitorSnapshot{
		Oversubscribed: m.over.Load(),
		Trips:          m.trips.Load(),
		Untrips:        m.untrips.Load(),
		Probes:         h.Count,
		Overshoot: OvershootStats{
			Count:  h.Count,
			MeanNS: h.Mean(),
			MaxNS:  h.Max,
			P50NS:  h.Quantile(0.5),
			P99NS:  h.Quantile(0.99),
		},
	}
}

// MutexSnapshot is a point-in-time view of one Mutex's slow-path
// counters. The fast path (an uncontended CompareAndSwap) is not
// counted: instrumenting it would put an atomic increment on the
// acquisition hot path.
type MutexSnapshot struct {
	// SlowAcquires counts acquisitions that missed the fast path.
	SlowAcquires int64 `json:"slow_acquires"`
	// SpinAcquires / BlockAcquires split the slow acquisitions by the
	// mode that finally obtained the lock.
	SpinAcquires  int64 `json:"spin_acquires"`
	BlockAcquires int64 `json:"block_acquires"`
	// SpinToBlock / BlockToSpin count waiters that changed wait mode
	// mid-acquisition when the monitor's verdict flipped.
	SpinToBlock int64 `json:"spin_to_block"`
	BlockToSpin int64 `json:"block_to_spin"`
}

// String implements fmt.Stringer (and the expvar.Var contract) as JSON.
func (s MutexSnapshot) String() string {
	b, _ := json.Marshal(s)
	return string(b)
}

// Snapshot returns the mutex's slow-path counters. Safe to call
// concurrently with Lock/Unlock.
func (m *Mutex) Snapshot() MutexSnapshot {
	return MutexSnapshot{
		SlowAcquires:  m.slowAcquires.Load(),
		SpinAcquires:  m.spinAcquires.Load(),
		BlockAcquires: m.blockAcquires.Load(),
		SpinToBlock:   m.spinToBlock.Load(),
		BlockToSpin:   m.blockToSpin.Load(),
	}
}
