package obs

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// waiter wait-mode states for spin/block transition accounting.
const (
	waitNone = iota
	waitSpin
	waitBlock
)

// LockStats accumulates one lock instance's metrics. Histograms record
// virtual-time ticks.
type LockStats struct {
	ID   int32
	Name string

	Acquires   int64
	Releases   int64
	Handovers  int64
	SpinStarts int64
	Blocks     int64
	Wakes      int64
	// SpinToBlock / BlockToSpin count waiters that changed wait mode
	// mid-acquisition (a spin leg followed by blocking, or vice versa)
	// — the per-waiter view of FlexGuard's policy transitions, and the
	// spin-then-park fallback count for the heuristic locks.
	SpinToBlock int64
	BlockToSpin int64

	// Hold is the acquire→release time per critical section; Handover
	// the release→next-acquire latency (lock free time between owners).
	Hold        *Histogram
	HandoverLat *Histogram

	lastRelease sim.Time
	hasRelease  bool
	// threads holds per-thread acquisition state, indexed by tid+2 so
	// the kernel pseudo-ids -1 and -2 fit (grown on first sight).
	threads []threadStat
}

// threadStat is one thread's acquisition state on one lock.
type threadStat struct {
	acquiredAt sim.Time // valid while held
	held       bool
	waitMode   int8
}

// thread returns tid's state, growing the table on first sight.
func (ls *LockStats) thread(tid int32) *threadStat {
	i := int(tid) + 2
	if i >= len(ls.threads) {
		ls.growThreads(i + 1)
	}
	return &ls.threads[i]
}

//flexlint:coldpath
func (ls *LockStats) growThreads(n int) {
	for len(ls.threads) < n {
		ls.threads = append(ls.threads, threadStat{})
	}
}

// LockObserver implements sim.LockObserver: it consumes the lock-event
// stream and maintains per-lock LockStats. Policy switches are the
// Preemption Monitor's to count (monitor.Monitor.SpinToBlockSwitches).
// It is driven synchronously by the (single-threaded) simulator event
// loop, so it needs no locking of its own.
type LockObserver struct {
	m     *sim.Machine
	locks []*LockStats
}

// Observe attaches a new LockObserver to m and returns it.
func Observe(m *sim.Machine) *LockObserver {
	o := &LockObserver{m: m}
	m.AddLockObserver(o)
	return o
}

// lock returns (creating on first sight) the stats slot for lock id.
func (o *LockObserver) lock(id int32) *LockStats {
	if int(id) < len(o.locks) && o.locks[id] != nil {
		return o.locks[id]
	}
	return o.newLock(id)
}

//flexlint:coldpath
func (o *LockObserver) newLock(id int32) *LockStats {
	for int(id) >= len(o.locks) {
		o.locks = append(o.locks, nil)
	}
	ls := &LockStats{
		ID:          id,
		Name:        o.m.LockName(id),
		Hold:        NewHistogram(),
		HandoverLat: NewHistogram(),
	}
	o.locks[id] = ls
	return ls
}

// LockEvent implements sim.LockObserver.
func (o *LockObserver) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	// Monitor events carry no lock. A checker verdict may name one, but
	// it is no lock activity and must not open a row.
	if lock < 0 || kind == sim.TraceViolation {
		return
	}
	ls := o.lock(lock)
	switch kind {
	case sim.TraceAcquire:
		ls.Acquires++
		ts := ls.thread(tid)
		ts.acquiredAt, ts.held, ts.waitMode = at, true, waitNone
		if ls.hasRelease {
			ls.HandoverLat.Record(int64(at - ls.lastRelease))
			ls.hasRelease = false
		}
	case sim.TraceRelease:
		ls.Releases++
		if ts := ls.thread(tid); ts.held {
			ls.Hold.Record(int64(at - ts.acquiredAt))
			ts.held = false
		}
		ls.lastRelease = at
		ls.hasRelease = true
	case sim.TraceSpinStart:
		ls.SpinStarts++
		ts := ls.thread(tid)
		if ts.waitMode == waitBlock {
			ls.BlockToSpin++
		}
		ts.waitMode = waitSpin
	case sim.TraceLockBlock:
		ls.Blocks++
		ts := ls.thread(tid)
		if ts.waitMode == waitSpin {
			ls.SpinToBlock++
		}
		ts.waitMode = waitBlock
	case sim.TraceLockWake:
		ls.Wakes++
	case sim.TraceHandover:
		ls.Handovers++
	}
}

// Stats returns the per-lock stats, sorted by lock id, skipping locks
// that never emitted an event.
func (o *LockObserver) Stats() []*LockStats {
	out := make([]*LockStats, 0, len(o.locks))
	for _, ls := range o.locks {
		if ls != nil {
			out = append(out, ls)
		}
	}
	return out
}

// Totals aggregates every lock's counters.
func (o *LockObserver) Totals() LockTotals {
	var t LockTotals
	for _, ls := range o.Stats() {
		t.Acquires += ls.Acquires
		t.Releases += ls.Releases
		t.Handovers += ls.Handovers
		t.SpinStarts += ls.SpinStarts
		t.Blocks += ls.Blocks
		t.Wakes += ls.Wakes
		t.SpinToBlock += ls.SpinToBlock
		t.BlockToSpin += ls.BlockToSpin
	}
	return t
}

// LockTotals is the cross-lock aggregate of a run.
type LockTotals struct {
	Acquires, Releases, Handovers int64
	SpinStarts, Blocks, Wakes     int64
	SpinToBlock, BlockToSpin      int64
}

// LockSummary is one lock's reporting view (histograms reduced to
// stats.Summary in the caller's unit via scale).
type LockSummary struct {
	Name                     string
	Acquires, Handovers      int64
	SpinStarts, Blocks       int64
	Wakes                    int64
	SpinToBlock, BlockToSpin int64
	Hold                     stats.Summary
	Handover                 stats.Summary
}

// Summaries returns every lock's LockSummary with the given value scale
// applied to the histograms.
func (o *LockObserver) Summaries(scale float64) []LockSummary {
	ls := o.Stats()
	out := make([]LockSummary, 0, len(ls))
	for _, l := range ls {
		out = append(out, LockSummary{
			Name:        l.Name,
			Acquires:    l.Acquires,
			Handovers:   l.Handovers,
			SpinStarts:  l.SpinStarts,
			Blocks:      l.Blocks,
			Wakes:       l.Wakes,
			SpinToBlock: l.SpinToBlock,
			BlockToSpin: l.BlockToSpin,
			Hold:        l.Hold.Snapshot().Summary(scale),
			Handover:    l.HandoverLat.Snapshot().Summary(scale),
		})
	}
	return out
}
