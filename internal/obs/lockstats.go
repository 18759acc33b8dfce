package obs

import (
	"fmt"
	"io"
	"sort"

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
// stream and maintains per-lock LockStats plus the system-wide policy
// counters. It is driven synchronously by the (single-threaded)
// simulator event loop, so it needs no locking of its own.
type LockObserver struct {
	m     *sim.Machine
	locks []*LockStats

	// Policy-transition counters (Preemption Monitor events).
	PolicySpinToBlock int64
	PolicyBlockToSpin int64
	NPCSUps           int64
	NPCSDowns         int64

	// Robustness counters: invariant-checker verdicts and monitor
	// health-check trips seen on the event stream.
	Violations   int64
	MonitorStale int64
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
	switch kind {
	case sim.TracePolicySwitch:
		if arg == 1 {
			o.PolicySpinToBlock++
		} else {
			o.PolicyBlockToSpin++
		}
		return
	case sim.TraceNPCSUp:
		o.NPCSUps++
		return
	case sim.TraceNPCSDown:
		o.NPCSDowns++
		return
	case sim.TraceViolation:
		o.Violations++
		return
	case sim.TraceMonitorStale:
		o.MonitorStale++
		return
	}
	if lock < 0 {
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

// Totals aggregates every lock's counters and histograms.
func (o *LockObserver) Totals() LockTotals {
	var t LockTotals
	t.Hold = HistogramSnapshot{}
	t.Handover = HistogramSnapshot{}
	for _, ls := range o.Stats() {
		t.Acquires += ls.Acquires
		t.Releases += ls.Releases
		t.Handovers += ls.Handovers
		t.SpinStarts += ls.SpinStarts
		t.Blocks += ls.Blocks
		t.Wakes += ls.Wakes
		t.SpinToBlock += ls.SpinToBlock
		t.BlockToSpin += ls.BlockToSpin
		t.Hold.Merge(ls.Hold.Snapshot())
		t.Handover.Merge(ls.HandoverLat.Snapshot())
	}
	t.PolicySpinToBlock = o.PolicySpinToBlock
	t.PolicyBlockToSpin = o.PolicyBlockToSpin
	return t
}

// LockTotals is the cross-lock aggregate of a run.
type LockTotals struct {
	Acquires, Releases, Handovers int64
	SpinStarts, Blocks, Wakes     int64
	SpinToBlock, BlockToSpin      int64
	PolicySpinToBlock             int64
	PolicyBlockToSpin             int64
	Hold, Handover                HistogramSnapshot
}

// WriteText writes the plain-text per-lock metrics summary: one line per
// lock (sorted by acquisition count, then name, busiest first) plus a
// totals line. scale converts histogram ticks for display (use
// 1/sim.TicksPerMicrosecond for µs); prefix is prepended to every line
// so callers can indent or comment the block.
func (o *LockObserver) WriteText(w io.Writer, prefix string, scale float64) {
	ls := o.Stats()
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Acquires != ls[j].Acquires {
			return ls[i].Acquires > ls[j].Acquires
		}
		return ls[i].Name < ls[j].Name
	})
	fmt.Fprintf(w, "%s%-24s %9s %9s %8s %8s %9s %9s %9s %9s\n", prefix,
		"lock", "acquires", "handover", "s->b", "b->s",
		"hold_p50", "hold_p99", "hndov_p50", "hndov_p99")
	const maxLines = 20
	for i, l := range ls {
		if i == maxLines {
			fmt.Fprintf(w, "%s... %d more locks\n", prefix, len(ls)-maxLines)
			break
		}
		h := l.Hold.Snapshot()
		g := l.HandoverLat.Snapshot()
		fmt.Fprintf(w, "%s%-24s %9d %9d %8d %8d %9.2f %9.2f %9.2f %9.2f\n", prefix,
			l.Name, l.Acquires, l.Handovers, l.SpinToBlock, l.BlockToSpin,
			float64(h.Quantile(0.5))*scale, float64(h.Quantile(0.99))*scale,
			float64(g.Quantile(0.5))*scale, float64(g.Quantile(0.99))*scale)
	}
	t := o.Totals()
	fmt.Fprintf(w, "%stotal: %d acquires, %d spin-starts, %d blocks, %d wakes; waiter s->b=%d b->s=%d; policy s->b=%d b->s=%d\n",
		prefix, t.Acquires, t.SpinStarts, t.Blocks, t.Wakes,
		t.SpinToBlock, t.BlockToSpin, t.PolicySpinToBlock, t.PolicyBlockToSpin)
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
