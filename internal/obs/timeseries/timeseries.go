// Package timeseries is the virtual-time flight recorder: a windowed
// sampler that turns the lock-event stream and the machine's scheduler
// counters into per-window series — lock throughput, acquire-latency
// log2 histograms, wait-mode occupancy, per-shard runqueue depth,
// steal/migration counts and Preemption Monitor staleness. A single
// end-of-run aggregate cannot show FlexGuard's dynamic behaviour (when
// the monitor flips the policy, how fast the wait-mode mix responds);
// the series can.
//
// Windowing is driven by a periodic event on the machine's own event
// queue (Machine.Schedule). Because the next window edge is always a
// pending event, the fast-forward engine's inline-batching guard
// (canInline / PeekTime) bounds batched instruction chains at the edge
// exactly as it does for any other event: batching can never skip a
// window boundary, so window attribution is tick-exact. The sampler is
// passive — it draws no randomness and emits no trace events — so
// attaching it leaves the run's event stream and trace digest
// unchanged, and the recorded series are bit-identical across sweep
// worker counts and GOMAXPROCS settings.
//
// Window convention: window i covers ticks [i·W, (i+1)·W). An event
// timestamped exactly at a window edge belongs to the next window.
// Recording is allocation-free in the steady state: per-event work
// updates fixed accumulators, and per-window appends land in storage
// preallocated from Options.ExpectWindows.
package timeseries

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Wait-mode states tracked per thread from the lock-event stream.
const (
	modeNone int8 = iota
	modeSpin
	modeBlock
)

// Options configures Attach.
type Options struct {
	// Window is the sampling window in ticks; Attach panics if <= 0
	// (callers gate attachment on the flag being set).
	Window sim.Time
	// ExpectWindows preallocates series storage (windows beyond the
	// estimate still record, at the cost of an amortized append).
	ExpectWindows int
	// QueueDepth, if set, is an external gauge read at each window edge
	// and recorded as Point.Queue — the open-loop traffic engine passes
	// its request-queue depth here. The callback must be pure (no
	// machine mutation, no randomness) to keep the sampler passive.
	QueueDepth func() int64
}

// Point is one closed window of the series. All fields are counters or
// gauges in virtual-time ticks; JSON field order is fixed by struct
// declaration order, which the report schema relies on.
type Point struct {
	// Start is the window's first tick.
	Start int64 `json:"start"`
	// Acquires counts lock acquisitions in the window (lock throughput).
	Acquires int64 `json:"acquires"`
	// Ops counts workload operations completed in the window.
	Ops int64 `json:"ops"`
	// Lat is the contended-acquire latency histogram for the window
	// (first wait event to acquire; uncontended fast-path acquires are
	// counted in Acquires but record no latency sample). A window copies
	// it wholesale, so recording allocates nothing.
	Lat obs.Histogram `json:"lat"`
	// Wait-mode occupancy gauges, read at the window edge: waiters
	// currently spinning on-CPU, spinners preempted off-CPU (runnable),
	// and waiters blocked on a futex.
	Spinning      int64 `json:"spinning"`
	SpinPreempted int64 `json:"spin_preempted"`
	Blocked       int64 `json:"blocked"`
	// Runq is the per-shard runqueue depth at the window edge, one
	// entry per hardware context.
	Runq []int32 `json:"runq"`
	// Steals/Migrations are deltas of the machine's work-stealing and
	// cross-context dispatch counters over the window.
	Steals     int64 `json:"steals"`
	Migrations int64 `json:"migrations"`
	// Policy-transition counts (Preemption Monitor) in the window.
	PolicySpinToBlock int64 `json:"policy_stob"`
	PolicyBlockToSpin int64 `json:"policy_btos"`
	// NPCS is the monitor's num_preempted_cs value as of the last
	// NPCS event seen; MonitorStale counts health-check trips in the
	// window.
	NPCS         int64 `json:"npcs"`
	MonitorStale int64 `json:"monitor_stale"`
	// Queue is the external queue-depth gauge (Options.QueueDepth) at
	// the window edge. omitempty keeps recordings without the gauge —
	// every closed-loop run — byte-identical to the pre-gauge schema.
	Queue int64 `json:"queue,omitempty"`
}

// Series is a completed flight-recorder recording.
type Series struct {
	// Window is the window size in ticks.
	Window int64 `json:"window"`
	// Points are the closed windows, in time order. The final point may
	// cover a partial window ending at the run horizon.
	Points []Point `json:"points"`
}

// Sampler records a Series from a live machine. Create with Attach; it
// is driven synchronously by the (single-threaded) event loop, so it
// needs no locking.
type Sampler struct {
	m    *sim.Machine
	w    sim.Time
	next sim.Time // next window edge to close

	series   Series
	runqBuf  []int32 // flat backing for Point.Runq slices
	finished bool
	tickFn   func()       // pre-bound periodic callback
	queueFn  func() int64 // optional external queue-depth gauge

	// Current-window accumulators.
	acquires   int64
	lat        obs.Histogram
	policySB   int64
	policyBS   int64
	staleTrips int64
	npcs       int64
	opsSeen    int64 // machine total at the last closed edge
	stealsSeen int64
	migsSeen   int64

	// Per-thread wait state, indexed by tid (grown on demand).
	waitMode  []int8
	waitStart []sim.Time
}

// Attach installs a sampler on m with the given window and schedules
// its periodic edge event. Attach before Run. The sampler adds itself
// as a lock observer (it does not replace observers already attached).
func Attach(m *sim.Machine, o Options) *Sampler {
	if o.Window <= 0 {
		panic("timeseries: Options.Window must be positive")
	}
	ncpu := m.Config().NumCPUs
	cap := o.ExpectWindows + 2
	s := &Sampler{
		m:       m,
		w:       o.Window,
		next:    o.Window,
		runqBuf: make([]int32, 0, cap*ncpu),
		queueFn: o.QueueDepth,
	}
	s.series.Window = int64(o.Window)
	s.series.Points = make([]Point, 0, cap)
	s.tickFn = s.tick
	m.AddLockObserver(s)
	m.Schedule(s.next, s.tickFn)
	return s
}

// tick fires at a window edge. A same-tick event with a lower sequence
// number may already have rolled the window forward through the
// LockEvent guard; rollTo is then a no-op for this edge.
func (s *Sampler) tick() {
	s.rollTo(s.m.Now())
	if !s.finished {
		s.m.Schedule(s.next, s.tickFn)
	}
}

// rollTo closes every window whose edge is at or before at.
func (s *Sampler) rollTo(at sim.Time) {
	for at >= s.next && !s.finished {
		s.closeWindow()
	}
}

// closeWindow snapshots the current window into the series and resets
// the accumulators. Gauges (occupancy, runqueue depth) are read at the
// moment of closing, i.e. at the window-edge tick. It runs once per
// window, not per event, and appends into buffers sized for the
// expected window count at Attach.
//
//flexlint:coldpath
func (s *Sampler) closeWindow() {
	p := Point{
		Start:             int64(s.next - s.w),
		Acquires:          s.acquires,
		Lat:               s.lat,
		Steals:            s.m.TotalSteals - s.stealsSeen,
		Migrations:        s.m.TotalMigrations - s.migsSeen,
		PolicySpinToBlock: s.policySB,
		PolicyBlockToSpin: s.policyBS,
		NPCS:              s.npcs,
		MonitorStale:      s.staleTrips,
	}
	if s.queueFn != nil {
		p.Queue = s.queueFn()
	}
	var ops int64
	for i, t := range s.m.Threads() {
		ops += t.Ops
		var mode int8
		if i < len(s.waitMode) {
			mode = s.waitMode[i]
		}
		switch mode {
		case modeSpin:
			if t.State() == sim.StateRunning {
				p.Spinning++
			} else {
				p.SpinPreempted++
			}
		case modeBlock:
			p.Blocked++
		}
	}
	p.Ops = ops - s.opsSeen
	s.opsSeen = ops
	start := len(s.runqBuf)
	s.runqBuf = s.m.RunqDepths(s.runqBuf)
	p.Runq = s.runqBuf[start:len(s.runqBuf):len(s.runqBuf)]
	s.series.Points = append(s.series.Points, p)

	s.stealsSeen = s.m.TotalSteals
	s.migsSeen = s.m.TotalMigrations
	s.acquires = 0
	s.lat = obs.Histogram{}
	s.policySB, s.policyBS, s.staleTrips = 0, 0, 0
	s.next += s.w
}

// grow extends the per-thread wait arrays to cover tid.
func (s *Sampler) grow(tid int32) {
	if int(tid) >= len(s.waitMode) {
		s.growTo(int(tid) + 1)
	}
}

//flexlint:coldpath
func (s *Sampler) growTo(n int) {
	for len(s.waitMode) < n {
		s.waitMode = append(s.waitMode, modeNone)
		s.waitStart = append(s.waitStart, -1)
	}
}

// LockEvent implements sim.LockObserver. The rollTo guard keeps window
// attribution purely time-based: an event timestamped at an edge lands
// in the next window even when its completion event carries a lower
// sequence number than the sampler's edge event.
func (s *Sampler) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	if at >= s.next {
		s.rollTo(at)
	}
	switch kind {
	case sim.TraceAcquire:
		s.acquires++
		if tid >= 0 {
			s.grow(tid)
			if s.waitStart[tid] >= 0 {
				s.lat.Record(int64(at - s.waitStart[tid]))
				s.waitStart[tid] = -1
			}
			s.waitMode[tid] = modeNone
		}
	case sim.TraceSpinStart:
		s.beginWait(tid, at, modeSpin)
	case sim.TraceLockBlock:
		s.beginWait(tid, at, modeBlock)
	case sim.TracePolicySwitch:
		if arg == 1 {
			s.policySB++
		} else {
			s.policyBS++
		}
	case sim.TraceNPCSUp, sim.TraceNPCSDown:
		s.npcs = int64(arg)
	case sim.TraceMonitorStale:
		s.staleTrips++
	}
}

// beginWait marks tid waiting in the given mode, starting its acquire
// latency measurement at the first wait event of the acquisition.
func (s *Sampler) beginWait(tid int32, at sim.Time, mode int8) {
	if tid < 0 {
		return
	}
	s.grow(tid)
	if s.waitStart[tid] < 0 {
		s.waitStart[tid] = at
	}
	s.waitMode[tid] = mode
}

// Finish closes every remaining window through at (typically the Run
// horizon), including a final partial one, and returns the series.
// Idempotent: later calls return the same series.
func (s *Sampler) Finish(at sim.Time) *Series {
	if !s.finished {
		s.rollTo(at)
		if at > s.next-s.w {
			s.closeWindow() // partial tail window [edge, at)
		}
		s.finished = true
	}
	return &s.series
}

// CounterTracks renders the series as Perfetto counter tracks (one
// point per window, at the window's start tick).
func (s *Series) CounterTracks() []obs.CounterTrack {
	if len(s.Points) == 0 {
		return nil
	}
	mk := func(name string, f func(p *Point) int64) obs.CounterTrack {
		t := obs.CounterTrack{Name: name, Points: make([]obs.CounterPoint, 0, len(s.Points))}
		for i := range s.Points {
			p := &s.Points[i]
			t.Points = append(t.Points, obs.CounterPoint{Ts: sim.Time(p.Start), Value: f(p)})
		}
		return t
	}
	runq := func(p *Point) int64 {
		var d int64
		for _, q := range p.Runq {
			d += int64(q)
		}
		return d
	}
	tracks := []obs.CounterTrack{
		mk("acquires/win", func(p *Point) int64 { return p.Acquires }),
		mk("ops/win", func(p *Point) int64 { return p.Ops }),
		mk("acquire-lat-p99", func(p *Point) int64 { return p.Lat.Quantile(0.99) }),
		mk("spinning", func(p *Point) int64 { return p.Spinning }),
		mk("spin-preempted", func(p *Point) int64 { return p.SpinPreempted }),
		mk("blocked", func(p *Point) int64 { return p.Blocked }),
		mk("runq-depth", runq),
		mk("steals/win", func(p *Point) int64 { return p.Steals }),
		mk("npcs", func(p *Point) int64 { return p.NPCS }),
	}
	// Emit the external queue gauge only when it was recorded — series
	// without the gauge (all closed-loop runs) render exactly as before.
	for i := range s.Points {
		if s.Points[i].Queue != 0 {
			tracks = append(tracks, mk("queue-depth", func(p *Point) int64 { return p.Queue }))
			break
		}
	}
	return tracks
}
