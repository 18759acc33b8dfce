package traffic

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/locks"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Options configures Build.
type Options struct {
	// Arrivals is the arrival process (required).
	Arrivals Arrivals
	// Deadline is where generation stops (required). In-flight and
	// queued requests still drain afterwards; the caller's Run horizon
	// bounds the drain.
	Deadline sim.Time
	// QueueCap bounds the request queue; arrivals landing on a full
	// queue are dropped (load shedding) and counted. Default 1024.
	QueueCap int
	// MaxWorkers is the elastic pool's safety valve, not a thread-count
	// knob: the pool starts empty and grows one worker per arrival that
	// finds no idle worker. Default 4×CPUs+64, clamped so worker tids
	// stay inside the machine's MaxThreads budget.
	MaxWorkers int
	// ServiceMean is the mean of the exponential per-request service
	// time in ticks. Default 22_000 (≈10 µs at 2.2 GHz).
	ServiceMean sim.Time
	// CSFraction is the fraction of the service time spent holding the
	// request's lock (default 0.5); the rest is split evenly around the
	// critical section.
	CSFraction float64
	// Locks is the number of lock stripes requests are spread over
	// uniformly (default 1: a single hot lock).
	Locks int
	// NewLock builds the lock instances (required; the harness passes
	// its algorithm registry through here).
	NewLock func(name string) locks.Lock
	// DispatchCost is the dequeue/dispatch bookkeeping charged to a
	// worker per request (default 500 ticks).
	DispatchCost sim.Time
	// StallBound is the no-progress watchdog: if work is outstanding
	// and nothing has completed (or resolved as lost) for this long,
	// the generator stops and wakes the pool so the machine can drain
	// — which is what lets the deadlock verdict fire instead of being
	// masked by an endless strong-event arrival chain. Default
	// 200×ServiceMean, floored at 1M ticks.
	StallBound sim.Time
	// Seed seeds the service-time/lock-choice stream (default 1).
	Seed uint64
}

// request is one queued unit of work; everything a worker needs is
// drawn at arrival time from the engine's stream, so which worker runs
// it cannot perturb the random sequence.
type request struct {
	arrive sim.Time
	svc    sim.Time // non-critical compute (pre+post)
	cs     sim.Time // critical-section compute
	lock   int32
}

// workerState is the engine's view of one pool worker (the supervisor's
// bookkeeping row).
type workerState struct {
	t      *sim.Thread
	idle   bool // parked (or about to park) on the doorbell
	hasReq bool // between dequeue and completion
	dead   bool
}

// Engine is a built open-loop traffic instance. All counters are plain
// Go state: the simulator's event loop serializes every access.
type Engine struct {
	m        *sim.Machine
	arr      Arrivals
	deadline sim.Time

	db    *sim.Word // doorbell: bumped by every arrival and by close
	locks []locks.Lock

	rng          *dist.Rand
	svcMean      float64
	csFrac       float64
	dispatchCost sim.Time
	stallBound   sim.Time
	queueCap     int
	maxWorkers   int

	ring       []request
	head, qlen int

	fnArrive func()
	fnClose  func()

	// Accounting. Conservation invariant (Validate): Offered ==
	// Completed + Dropped + Lost + backlog + inflight.
	Offered   int64 // arrivals generated (including drops)
	Dropped   int64 // arrivals shed on a full queue
	Completed int64 // requests fully served
	Lost      int64 // requests whose worker was crash-killed mid-service
	inflight  int64 // dequeued, not yet completed
	peakQueue int64

	live, idle, spawned, peakWorkers int

	// start is the machine clock at Build. Deadline and the reported
	// StalledAt/ClosedAt are windows relative to it.
	start        sim.Time
	lastProgress sim.Time
	closed       bool
	closedAt     sim.Time
	stalled      bool
	stalledAt    sim.Time

	// Resp is the response-latency log2 histogram (arrival →
	// completion: queue wait + dispatch + service); Wait is queue wait
	// alone (arrival → dispatch). Ticks.
	Resp *obs.Histogram
	Wait *obs.Histogram

	byTID []*workerState // dense worker lookup for the kill hook
}

// Build wires the engine onto m and schedules the first arrival as a
// strong kernel event. Call before Machine.Run. The pool starts empty;
// workers are spawned on demand, so runnable-thread count — and with it
// oversubscription — is purely a function of offered load.
func Build(m *sim.Machine, o Options) *Engine {
	if o.Arrivals == nil {
		panic("traffic: Options.Arrivals is required")
	}
	if o.Deadline <= 0 {
		panic("traffic: Options.Deadline must be positive")
	}
	if o.NewLock == nil {
		panic("traffic: Options.NewLock is required")
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	if o.ServiceMean <= 0 {
		o.ServiceMean = 22_000
	}
	if o.CSFraction <= 0 || o.CSFraction > 1 {
		o.CSFraction = 0.5
	}
	if o.Locks <= 0 {
		o.Locks = 1
	}
	if o.DispatchCost <= 0 {
		o.DispatchCost = 500
	}
	if o.StallBound <= 0 {
		o.StallBound = 200 * o.ServiceMean
		if o.StallBound < 1_000_000 {
			o.StallBound = 1_000_000
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	cfg := m.Config()
	budget := cfg.MaxThreads - len(m.Threads()) - 8
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = 4*cfg.NumCPUs + 64
	}
	if o.MaxWorkers > budget {
		o.MaxWorkers = budget
	}
	if o.MaxWorkers < 1 {
		panic("traffic: no thread budget for workers (raise Config.MaxThreads)")
	}

	e := &Engine{
		m:            m,
		arr:          o.Arrivals,
		start:        m.Now(),
		lastProgress: m.Now(),
		deadline:     m.Now() + o.Deadline,
		db:           m.NewWord("traffic.doorbell", 0),
		rng:          dist.NewRand(o.Seed),
		svcMean:      float64(o.ServiceMean),
		csFrac:       o.CSFraction,
		dispatchCost: o.DispatchCost,
		stallBound:   o.StallBound,
		queueCap:     o.QueueCap,
		maxWorkers:   o.MaxWorkers,
		ring:         make([]request, o.QueueCap),
		Resp:         obs.NewHistogram(),
		Wait:         obs.NewHistogram(),
	}
	for i := 0; i < o.Locks; i++ {
		e.locks = append(e.locks, o.NewLock(fmt.Sprintf("traffic.l%d", i)))
	}
	e.fnArrive = e.arrive
	e.fnClose = func() { e.finishGen(false) }
	m.RegisterKillHook(e.onKill)

	first := e.start + e.arr.Next(0)
	if first >= e.deadline {
		m.ScheduleWork(e.deadline, e.fnClose)
	} else {
		m.ScheduleWork(first, e.fnArrive)
	}
	return e
}

// arrive fires per arrival in kernel context: admit or shed the
// request, ring the doorbell, grow the pool if nobody is free, and
// schedule the next arrival — unless the watchdog says the system has
// stopped making progress, in which case generation yields so the
// machine can drain and deadlock verdicts stay visible.
func (e *Engine) arrive() {
	now := e.m.Now()
	if e.closed {
		return
	}
	if e.qlen+int(e.inflight) > 0 && now-e.lastProgress > e.stallBound {
		e.finishGen(true)
		return
	}
	e.Offered++
	if e.qlen == e.queueCap {
		e.Dropped++
	} else {
		svc := expGap(e.rng, e.svcMean)
		cs := sim.Time(float64(svc) * e.csFrac)
		var lk int32
		if len(e.locks) > 1 {
			lk = int32(e.rng.Intn(len(e.locks)))
		}
		e.ring[(e.head+e.qlen)%e.queueCap] = request{arrive: now, svc: svc - cs, cs: cs, lock: lk}
		e.qlen++
		if int64(e.qlen) > e.peakQueue {
			e.peakQueue = int64(e.qlen)
		}
		e.m.KernelAdd(e.db, 1)
		woken := e.m.KernelFutexWake(e.db, 1, -1)
		if woken == 0 && e.idle == 0 && e.live < e.maxWorkers {
			e.spawnWorker()
		}
	}
	next := e.arr.Next(now)
	if next >= e.deadline {
		e.m.ScheduleWork(e.deadline, e.fnClose)
		return
	}
	e.m.ScheduleWork(next, e.fnArrive)
}

// finishGen ends generation (deadline reached, or the stall watchdog
// tripped) and wakes the whole pool: healthy workers drain the backlog
// and exit, so only genuinely stuck threads stay parked.
func (e *Engine) finishGen(stalled bool) {
	if e.closed {
		return
	}
	e.closed = true
	e.closedAt = e.m.Now()
	if stalled {
		e.stalled = true
		e.stalledAt = e.closedAt
	}
	e.m.KernelAdd(e.db, 1)
	e.m.KernelFutexWake(e.db, e.maxWorkers+1, -1)
}

// spawnWorker grows the pool by one (kernel context; the thread
// dispatches at the current virtual time). Pool growth is bounded by
// maxWorkers and each worker is set up once.
//
//flexlint:coldpath
func (e *Engine) spawnWorker() {
	ws := &workerState{}
	ws.t = e.m.Spawn("loadworker", func(p *sim.Proc) { e.worker(p, ws) })
	for ws.t.ID() >= len(e.byTID) {
		e.byTID = append(e.byTID, nil)
	}
	e.byTID[ws.t.ID()] = ws
	e.live++
	e.spawned++
	if e.live > e.peakWorkers {
		e.peakWorkers = e.live
	}
}

// pop dequeues the oldest request.
func (e *Engine) pop() (request, bool) {
	if e.qlen == 0 {
		return request{}, false
	}
	r := e.ring[e.head]
	e.head = (e.head + 1) % e.queueCap
	e.qlen--
	return r, true
}

// worker is one pool thread: dequeue, serve (compute around a lock
// critical section), complete; park on the doorbell when the queue is
// empty, exit once generation has closed and the backlog is drained.
func (e *Engine) worker(p *sim.Proc, ws *workerState) {
	for {
		seen := p.Load(e.db)
		req, ok := e.pop()
		if !ok {
			if e.closed {
				return
			}
			ws.idle = true
			e.idle++
			p.FutexWait(e.db, seen)
			ws.idle = false
			e.idle--
			continue
		}
		e.inflight++
		ws.hasReq = true
		p.Compute(e.dispatchCost)
		e.Wait.Record(int64(p.Now() - req.arrive))
		pre := req.svc / 2
		if pre > 0 {
			p.Compute(pre)
		}
		l := e.locks[req.lock]
		l.Lock(p)
		if req.cs > 0 {
			p.Compute(req.cs)
		}
		l.Unlock(p)
		if req.svc-pre > 0 {
			p.Compute(req.svc - pre)
		}
		now := p.Now()
		e.Resp.Record(int64(now - req.arrive))
		e.Completed++
		e.inflight--
		ws.hasReq = false
		e.lastProgress = now
		p.CountOp()
	}
}

// onKill is the pool supervisor's crash bookkeeping: a killed worker
// leaves the pool (so arrivals spawn replacements) and its in-flight
// request, if any, is resolved as lost — resolution counts as progress
// so a crash storm doesn't read as a stall.
func (e *Engine) onKill(t *sim.Thread) {
	id := t.ID()
	if id >= len(e.byTID) || e.byTID[id] == nil {
		return
	}
	ws := e.byTID[id]
	if ws.dead {
		return
	}
	ws.dead = true
	e.live--
	if ws.idle {
		ws.idle = false
		e.idle--
	}
	if ws.hasReq {
		ws.hasReq = false
		e.inflight--
		e.Lost++
		e.lastProgress = e.m.Now()
	}
}

// QueueDepth returns the current request-queue depth (the flight
// recorder's per-window gauge).
func (e *Engine) QueueDepth() int64 { return int64(e.qlen) }

// Stats is a post-run snapshot of the engine's accounting.
type Stats struct {
	Offered   int64
	Dropped   int64
	Completed int64
	Lost      int64
	Backlog   int64 // still queued when the run ended
	Inflight  int64 // dequeued but unfinished when the run ended
	PeakQueue int64
	// Pool shape: workers ever spawned, peak concurrently live.
	SpawnedWorkers int64
	PeakWorkers    int64
	Stalled        bool
	StalledAt      sim.Time // offset from engine start (Build time)
	ClosedAt       sim.Time // when generation stopped, offset from engine start
	Resp           obs.HistogramSnapshot
	Wait           obs.HistogramSnapshot
}

// Stats snapshots the engine (call after Machine.Run).
func (e *Engine) Stats() Stats {
	return Stats{
		Offered:        e.Offered,
		Dropped:        e.Dropped,
		Completed:      e.Completed,
		Lost:           e.Lost,
		Backlog:        int64(e.qlen),
		Inflight:       e.inflight,
		PeakQueue:      e.peakQueue,
		SpawnedWorkers: int64(e.spawned),
		PeakWorkers:    int64(e.peakWorkers),
		Stalled:        e.stalled,
		StalledAt:      rel(e.stalledAt, e.start),
		ClosedAt:       rel(e.closedAt, e.start),
		Resp:           e.Resp.Snapshot(),
		Wait:           e.Wait.Snapshot(),
	}
}

// rel converts an absolute timestamp to an offset from the engine start
// (zero timestamps — "never happened" — stay zero).
func rel(t, start sim.Time) sim.Time {
	if t == 0 {
		return 0
	}
	return t - start
}

// Validate checks request conservation: every offered request is
// accounted for exactly once (completed, shed, lost to a crash, still
// queued, or still in flight at shutdown).
func (e *Engine) Validate() error {
	sum := e.Completed + e.Dropped + e.Lost + int64(e.qlen) + e.inflight
	if sum != e.Offered {
		return fmt.Errorf("traffic: conservation broken: offered %d != completed %d + dropped %d + lost %d + backlog %d + inflight %d",
			e.Offered, e.Completed, e.Dropped, e.Lost, e.qlen, e.inflight)
	}
	if e.Resp.Count() != e.Completed {
		return fmt.Errorf("traffic: %d response samples for %d completions", e.Resp.Count(), e.Completed)
	}
	return nil
}
