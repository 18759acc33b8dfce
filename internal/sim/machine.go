package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"

	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// SchedSwitchHook is the simulator analogue of an eBPF program attached to
// the kernel's sched_switch tracepoint. It is invoked on every context
// switch with the outgoing and incoming threads; either may be nil (the
// idle task). Hooks run in "kernel context": they may read task-struct
// fields and use KernelStore/KernelAdd, but must not call Proc methods.
type SchedSwitchHook func(prev, next *Thread)

// LockObserver consumes the machine's lock-event stream (the expanded
// trace model): acquisitions, releases, spin legs, blocking decisions,
// handovers and the Preemption Monitor's policy switches, plus the
// scheduler-side block/wake/sleep/exit events (Lock = -1) that frame
// them. Observers are called synchronously from the emitting context
// and must not call Proc methods. Attach with Machine.AddLockObserver;
// when none is attached (and no Tracer is), emitting an event is a pair
// of cheap checks — the same default-off pattern as Tracer.record.
type LockObserver interface {
	LockEvent(at Time, kind TraceKind, lock, tid, arg int32)
}

// FaultInjector perturbs scheduling-relevant decisions. All methods are
// called while the simulation runs single-threaded — from an event
// callback, or from a thread's inline fast path, on whichever goroutine
// holds the turn — and must be deterministic given the machine seed:
// draw randomness only from a seeded dist.Rand. Attach with
// SetFaultInjector before Run; with none attached every seam is a single
// nil check.
type FaultInjector interface {
	// SliceGrant may perturb the timeslice about to be granted to t.
	// Values below 1 are clamped to 1 tick.
	SliceGrant(t *Thread, slice Time) Time
	// PreemptAtBoundary reports whether to force an involuntary context
	// switch at the instruction boundary t just reached.
	PreemptAtBoundary(t *Thread) bool
	// WakeDelay may stretch the futex wake latency for waiter t.
	WakeDelay(t *Thread, lat Time) Time
	// SpuriousWakeDelay returns a delay after which waiter t, just
	// parked on a futex, is spuriously woken (0 = no spurious wake).
	SpuriousWakeDelay(t *Thread) Time
}

// CrashInjector is an optional extension of FaultInjector: an injector
// that also implements it can kill threads mid-protocol. It is a
// separate interface (detected by type assertion in SetFaultInjector)
// so existing FaultInjector implementations keep compiling, and so the
// crash seams stay a single nil check when no crash-capable injector is
// attached — the same pay-for-use pattern as the other seams.
type CrashInjector interface {
	// CrashAtBoundary reports whether t should crash (Machine.Kill) at
	// the instruction boundary it just reached.
	CrashAtBoundary(t *Thread) bool
	// CrashParkedDelay returns a delay after which t, just parked on a
	// futex, is killed in place (0 = no crash). The kill fires only if
	// t is still parked when the delay elapses — a waiter that was
	// woken (or exited) meanwhile is not the parked victim the plan
	// asked for; either way CrashParkedOutcome reports what happened.
	CrashParkedDelay(t *Thread) Time
	// CrashParkedOutcome resolves a kill scheduled by CrashParkedDelay:
	// landed is true when the kill transitioned t to StateDead, false
	// when t had already left the futex and the kill was skipped. The
	// injector uses this to count only crashes that actually happened.
	CrashParkedOutcome(t *Thread, landed bool)
}

// KillHook runs in kernel context after Machine.Kill has transitioned a
// thread to StateDead — the simulator analogue of the kernel's
// exit-time robust-futex walk. Hooks may read task-struct fields and
// any Word, and may use KernelStore/KernelAdd/KernelFutexWake, but must
// not call Proc methods. Hooks run in registration order.
type KillHook func(t *Thread)

// cpuCtx is one hardware context with its own runqueue shard. Sharding
// the runqueue per core (instead of one global FIFO) mirrors the
// per-CPU runqueues of the CFS environment the paper evaluates on, and
// turns the O(runnable) global scan into O(1) local operations at the
// many-context scale (up to 512 contexts) the paper studies.
type cpuCtx struct {
	id        int
	cur       *Thread
	switching bool // a dispatch is in flight toward this context

	// Local runqueue shard: an intrusive FIFO linked through
	// Thread.rqNext (a thread is on at most one shard, so one link field
	// suffices). The intrusive list makes push/pop/push-front pointer
	// writes with zero allocation — the slice representation it replaces
	// allocated on every wake-preemption push-front and periodically
	// compacted its backing array.
	qh, qt *Thread
	qlen   int32
}

// Machine is a simulated multicore machine. Create with New, add threads
// with Spawn, then call Run once.
type Machine struct {
	cfg   Config
	clock Time
	eq    vtime.Queue

	cpus    []*cpuCtx
	threads []*Thread

	// nqueued is the total number of threads across all runqueue shards
	// (excluding threads currently on a context).
	nqueued int

	futexQ map[*Word][]*Thread

	hooks     []SchedSwitchHook
	tracer    *Tracer
	lockObs   []LockObserver
	fi        FaultInjector
	ci        CrashInjector // crash-capable side of fi, nil when absent
	killHooks []KillHook
	mem       MemObserver
	nextWord  int32

	// Word state, structure-of-arrays (see word.go): per-line owner and
	// sharer bitmaps indexed by dense line id, and the spinner lists of
	// the words ever spun on, indexed by Word.watch (entry 0 unused).
	lineOwner   []int32
	lineSharers []uint64 // lineStride words per line
	lineStride  int32
	wordSlab    []Word // unused handles of the current slab (see handle)
	watchers    [][]int32

	// Name tables (see names.go): word names as runs of naming calls, and
	// one name per lock.
	names     []nameRun
	lockNames []string

	// horizon is the current Run deadline; firing is the event whose
	// callback is executing. Both drive the fast-forward path: horizon
	// bounds inline execution, and firing lets pre-bound slice-expiry
	// callbacks detect staleness by event identity.
	horizon Time
	firing  *vtime.Event
	cont    *Thread // thread the firing callback named to resume (setCont)

	// Event-loop state. The loop runs on whichever goroutine holds the
	// turn (see drive), so none of it may live in a goroutine's frame:
	// sample is RunSampled's probe, and stopped ends the run. stopped
	// stays set once the run ends, so a body unwinding at shutdown never
	// fires an event.
	sample  func(n, strong int)
	stopped bool

	rng *dist.Rand

	runnable int64
	timeline stats.Timeline

	finished bool
	drained  bool // event queue emptied before the Run horizon

	// TotalSwitches and TotalPreemptions count context switches across the
	// run; TotalPreemptions counts only involuntary ones. TotalSteals
	// counts threads taken off another core's runqueue shard, and
	// TotalMigrations dispatches of a thread onto a context other than
	// the one it last ran on.
	TotalSwitches    int64
	TotalPreemptions int64
	TotalSteals      int64
	TotalMigrations  int64

	// resumes counts continuations: each time a thread named by setCont
	// gets the turn back, whichever goroutine hands it over. coroSwitches
	// counts the coroutine switches those handoffs cost, the event
	// loop's dominant host-time overhead: two per Thread.next call, one
	// up and one back down when the thread yields or exits. Inline
	// batching avoids continuations; nesting (see drive) avoids switches.
	resumes      int64
	coroSwitches int64

	// memBuf is the Word-access event buffer handed to mem (mem.go). It
	// sits last so the fields the step loop touches keep their layout.
	memBuf MemEvent
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.NumCPUs <= 0 {
		panic("sim: Config.NumCPUs must be positive")
	}
	if cfg.Costs.Timeslice <= 0 {
		panic("sim: Config.Costs.Timeslice must be positive")
	}
	m := &Machine{
		cfg:        cfg,
		futexQ:     make(map[*Word][]*Thread),
		rng:        dist.NewRand(cfg.Seed),
		lineStride: int32((cfg.NumCPUs + 63) / 64),
	}
	m.cpus = make([]*cpuCtx, cfg.NumCPUs)
	for i := range m.cpus {
		m.cpus[i] = &cpuCtx{id: i}
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the current virtual time.
func (m *Machine) Now() Time { return m.clock }

// Rand returns the machine's root deterministic random stream.
func (m *Machine) Rand() *dist.Rand { return m.rng }

// Threads returns all spawned threads in spawn order.
func (m *Machine) Threads() []*Thread { return m.threads }

// RunnableTimeline returns the recorded runnable-thread step function
// (only populated when Config.RecordRunnable is set).
func (m *Machine) RunnableTimeline() *stats.Timeline { return &m.timeline }

// RegisterSwitchHook attaches a sched_switch hook. Attach before Run.
func (m *Machine) RegisterSwitchHook(h SchedSwitchHook) {
	m.hooks = append(m.hooks, h)
}

// AddLockObserver attaches an additional lock-event consumer; observers
// are invoked in attach order.
func (m *Machine) AddLockObserver(o LockObserver) {
	if o != nil {
		m.lockObs = append(m.lockObs, o)
	}
}

// SetFaultInjector attaches (or with nil, detaches) the fault injector.
// An injector that also implements CrashInjector arms the crash seams.
// Attach before Run.
func (m *Machine) SetFaultInjector(fi FaultInjector) {
	m.fi = fi
	m.ci, _ = fi.(CrashInjector)
}

// RegisterKillHook attaches a kill hook (the robust-futex exit walk).
// Attach before Run.
func (m *Machine) RegisterKillHook(h KillHook) {
	m.killHooks = append(m.killHooks, h)
}

// lockEvent fans one lock event out to the tracer and the observer. The
// leading nil checks keep the disabled cost to a couple of predictable
// branches, matching the Tracer.record pattern, so instrumentation in
// lock hot paths is free when nothing is attached.
func (m *Machine) lockEvent(kind TraceKind, lock, tid, arg int32) {
	if m.tracer == nil && len(m.lockObs) == 0 {
		return
	}
	m.tracer.record(m.clock, kind, tid, arg, lock)
	for _, o := range m.lockObs {
		o.LockEvent(m.clock, kind, lock, tid, arg)
	}
}

// KernelLockEvent emits a lock event from kernel-side code (sched_switch
// hooks such as the Preemption Monitor). lock may be -1 for system-wide
// events; arg carries event-specific data (policy direction, counter
// value).
func (m *Machine) KernelLockEvent(kind TraceKind, lock, tid, arg int32) {
	m.lockEvent(kind, lock, tid, arg)
}

// Schedule arranges for fn to run in kernel context at virtual time at
// (>= the current clock). It is the hook for kernel-side instrumentation
// with its own clock — e.g. the flight recorder's window sampler — and
// deliberately shares the machine's one event queue: a scheduled event
// bounds the fast-forward inline-batching horizon through PeekTime
// exactly like any other event, so batched instruction chains can never
// run past it. fn must not call Proc methods, draw from the machine
// RNG, or emit trace events; a passive (read-only) fn leaves the event
// stream and digest of the run unchanged. Events at or after the Run
// horizon never fire.
//
// Scheduled events are weak: they never keep the machine alive. When
// only weak events remain in the queue, Run drains exactly as it would
// with an empty queue, so the quiesce time, deadlock detection, and
// hang detection are independent of attached telemetry.
func (m *Machine) Schedule(at Time, fn func()) {
	if at < m.clock {
		panic("sim: Schedule in the past")
	}
	m.eq.ScheduleWeak(at, fn)
}

// ScheduleWork is Schedule for active kernel-side sources: fn still runs
// in kernel context at virtual time at, but the event is strong — it
// represents pending work arriving from outside the machine (a NIC
// interrupt, a timer-driven request injection) and keeps the machine
// alive until it fires, exactly like a thread's own events. The
// open-loop traffic engine schedules its arrival process through this
// seam, so a machine whose threads are all parked between requests
// keeps running toward the next arrival instead of draining.
//
// fn may mutate machine state the way a KillHook can — KernelStore /
// KernelAdd / KernelFutexWake, Machine.Spawn — but must not call Proc
// methods (there is no thread context). A source that wants deadlock
// verdicts to stay meaningful must eventually stop rescheduling itself
// when the system makes no progress: a strong event chain that runs to
// the horizon unconditionally would keep the queue from draining and
// mask Deadlocked(), the exact failure mode the flight recorder's weak
// events were introduced to avoid.
func (m *Machine) ScheduleWork(at Time, fn func()) {
	if at < m.clock {
		panic("sim: ScheduleWork in the past")
	}
	m.eq.Schedule(at, fn)
}

// RunqDepths appends the current depth of every runqueue shard (one
// entry per hardware context, in context order) to dst and returns it.
// Kernel-side telemetry helper: passing a reused buffer keeps sampling
// allocation-free.
func (m *Machine) RunqDepths(dst []int32) []int32 {
	for _, c := range m.cpus {
		dst = append(dst, c.qlen)
	}
	return dst
}

// Spawn creates a simulated thread executing body and makes it runnable at
// the current time. Must not be called after Run returns.
//
//flexlint:coldpath
func (m *Machine) Spawn(name string, body func(p *Proc)) *Thread {
	if m.finished {
		panic("sim: Spawn after Run finished")
	}
	t := &Thread{
		id:      len(m.threads),
		name:    name,
		m:       m,
		cpu:     -1,
		lastCPU: -1,
		Rand:    m.rng.Split(),
	}
	t.proc = &Proc{t: t, m: m}
	t.pending = pendStep
	// Bind the per-thread event callbacks once; see Thread.fnOp.
	t.fnOp = func() { m.opFire(t) }
	t.fnCompute = func() { m.computeFire(t) }
	t.fnSpinExit = func() { m.spinExitCheck(t) }
	t.fnSpinTimeout = func() { m.spinTimeoutFire(t) }
	t.fnSpinFinal = func() {
		if t.state == StateRunning && t.pending == pendSpin {
			m.completeSpin(t, true)
		}
	}
	t.fnFutexWake = func() {
		if t.state == StateBlocked {
			m.makeRunnable(t)
		}
	}
	t.fnSleepWake = func() {
		if t.state == StateSleeping {
			m.makeRunnable(t)
		}
	}
	t.fnSlice = func() { m.sliceFire(t) }
	t.fnDispatch = func() { m.dispatch(m.cpus[t.dispatchCPU], t) }
	m.threads = append(m.threads, t)
	// The thread body runs as a coroutine: nothing executes until the
	// first next() (the first dispatch), and every Proc op that waits on
	// an event runs the loop in drive until the thread is named again.
	// Shutdown calls stop, which makes the parked yieldFn return false;
	// drive then panics errKilled so the body unwinds, and the recover
	// below swallows exactly that sentinel. A real panic in workload code
	// or a callback propagates out of next() through every goroutine on
	// the stack, with its value, into Run's caller (the sweep engine's
	// per-cell recover).
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yieldFn = yield
		func() {
			defer func() {
				if r := recover(); r != nil && r != errKilled {
					panic(r)
				}
			}()
			body(t.proc)
		}()
		t.done = true
	})
	m.makeRunnable(t)
	return t
}

// Run processes events until virtual time `until`, then terminates every
// live thread. It returns the time at which the machine went quiescent
// (equal to until unless all threads blocked or exited earlier — a return
// value below until with blocked threads indicates deadlock).
func (m *Machine) Run(until Time) Time { return m.run(until, nil) }

// run is Run with an optional probe called on the event queue's length
// and strong length before every pop; tests sample the queue through it.
func (m *Machine) run(until Time, sample func(n, strong int)) Time {
	if m.finished {
		panic("sim: Run called twice")
	}
	m.horizon = until
	m.sample = sample
	m.driveRun()
	quiesced := m.clock
	if m.clock < until {
		// Queue drained early: everything is blocked or done.
		m.clock = until
	}
	m.shutdown()
	m.finished = true
	return quiesced
}

// driveRun runs the event loop from Run's goroutine. A panic in a thread
// body or an event callback unwinds every coroutine on the stack to here;
// the threads parked in their yields are then stopped as at shutdown,
// with the run marked stopped so none of their unwinding fires an event,
// and the panic continues to Run's caller with its original value.
func (m *Machine) driveRun() {
	defer func() {
		if r := recover(); r != nil {
			m.stopped = true
			m.cont = nil
			m.stopThreads()
			panic(r)
		}
	}()
	m.drive(nil)
}

// drive runs the event loop on the goroutine that holds the turn: Run's
// goroutine (self == nil), or thread self's coroutine, which calls it
// from Proc.suspend and returns into its body when named to continue.
// The goroutines form a stack: Run's goroutine at the bottom, and above
// it each thread that the goroutine below resumed with next and that has
// not yielded back since (Thread.onStack). Only the top one runs. After
// each event, the thread the callback named (setCont) is
//   - self: drive returns, with no switch;
//   - lower on the stack: the top yields, and the goroutine below
//     carries on with the same decision until the thread is reached;
//   - off the stack: resumed with next, nesting above the top.
//
// So a thread handing the turn back to the thread that resumed it costs
// one switch, where a loop on Run's goroutine alone pays two per resume.
// Nesting is unbounded; the depth stays within the thread count (80 on
// perfbench sweep). A cap would cost switches and buy no speed:
// replaying recorded resume sequences, sweep needs 65% of the
// two-per-resume switches unbounded and 70% with a cap of 4 (unwinding
// to Run's goroutine when full, which beats resuming from the level
// below the top), and timed side by side in one process the sweep's
// sharedmem ladder took 85% of the single-loop time unbounded against
// 87% capped at 4 or 8, with spin-ext's 45–65 thread herds no slower.
//
// A run that stops unwinds the whole stack, so when Run returns every
// live thread is parked in its own yield, as shutdown expects. The
// decisions read only machine state, and every goroutine fires events
// through the same fire, so where the loop runs never moves an event, a
// random draw or a resume.
func (m *Machine) drive(self *Thread) {
	for {
		t := m.cont
		switch {
		case t != nil && t == self:
			m.cont = nil
			m.resumes++
			return
		case t == nil && !m.stopped:
			m.fire()
		case t != nil && !t.onStack:
			m.resume(t)
		case self == nil:
			return // the run stopped and the stack has unwound
		default:
			// Yield down: t is lower on the stack, or the run stopped.
			// self gets the turn back only through next, once a callback
			// names it again and the goroutine then on top consumes that.
			if !self.yieldFn(struct{}{}) {
				// The machine called stop (shutdown): unwind the body.
				panic(errKilled)
			}
			return
		}
	}
}

// resume hands the turn to t, which is off the coroutine stack, and
// takes it back when t yields or its body returns. onExit runs here, in
// the goroutine whose next reported the body done.
func (m *Machine) resume(t *Thread) {
	m.cont = nil
	m.resumes++
	m.coroSwitches += 2
	t.onStack = true
	t.next()
	t.onStack = false
	if t.done {
		m.onExit(t)
	}
}

// fire pops the next event and runs its callback, or stops the run at
// its end: the queue holds no strong event, or the next one is at or
// past the horizon.
func (m *Machine) fire() {
	if m.sample != nil {
		m.sample(m.eq.Len(), m.eq.StrongLen())
	}
	if m.eq.StrongLen() == 0 {
		// Nothing left but weak (instrumentation) events, if that.
		// They must never keep the machine alive: drain here, with
		// the clock still at the last real event, so the quiesce
		// time and deadlock detection match an uninstrumented run.
		m.drained = true
		m.stopped = true
		return
	}
	ev := m.eq.Pop()
	if ev == nil {
		m.drained = true
		m.stopped = true
		return
	}
	if ev.At >= m.horizon {
		m.clock = m.horizon
		m.stopped = true
		return
	}
	if ev.At < m.clock {
		panic(fmt.Sprintf("sim: time went backwards: event at %d, clock %d", ev.At, m.clock))
	}
	m.clock = ev.At
	m.firing = ev
	ev.Fn()
	m.firing = nil
	// The event fired and every handle to it has been dropped (the
	// machine nulls its event pointers when a callback runs), so it
	// can be reused by the next Schedule, even the resumed thread's.
	m.eq.Recycle(ev)
}

// setCont names t, on its CPU with pending == pendStep, as the thread
// drive hands the turn to when the firing callback returns. It is always
// the callback's last action, so the deferred resume reorders nothing.
func (m *Machine) setCont(t *Thread) {
	if m.cont != nil {
		panic("sim: two threads to resume after one event")
	}
	m.cont = t
}

// Deadlocked reports, after Run, whether the machine deadlocked: the
// event queue drained before the horizon while threads were still
// blocked on futexes. (Spinning threads keep slice-expiry events in the
// queue, so a drain implies nothing was spinning either.) A silent hang
// — throughput zero, queue empty — is indistinguishable from a slow run
// without this.
func (m *Machine) Deadlocked() bool {
	if !m.drained {
		return false
	}
	for _, t := range m.threads {
		if t.state == StateBlocked {
			return true
		}
	}
	return false
}

// BlockedWaiter pairs a blocked thread with the futex word it waits on.
type BlockedWaiter struct {
	Thread *Thread
	Word   *Word
}

// BlockedWaiters returns, in thread-id order, every thread parked on a
// futex at the time of the call (typically after Run, for deadlock
// dumps).
func (m *Machine) BlockedWaiters() []BlockedWaiter {
	var out []BlockedWaiter
	for w, q := range m.futexQ { //flexlint:allow determinism result sorted by thread id below
		for _, t := range q {
			out = append(out, BlockedWaiter{Thread: t, Word: w})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Thread.id < out[j].Thread.id })
	return out
}

// DeadlockReport formats the owner/waiter state behind a Deadlocked()
// verdict: one line per parked thread naming the futex word it waits
// on, plus the word's current value (the "owner" state a futex-based
// lock encodes there).
func (m *Machine) DeadlockReport() string {
	var b strings.Builder
	bw := m.BlockedWaiters()
	fmt.Fprintf(&b, "deadlock: event queue drained at t=%d with %d thread(s) still blocked\n", m.clock, len(bw))
	for _, w := range bw {
		fmt.Fprintf(&b, "  thread %d (%s) blocked on %q (value %d)\n",
			w.Thread.id, w.Thread.name, m.WordName(w.Word.id), w.Word.V())
	}
	return b.String()
}

// Kill crashes thread t at the current virtual time: t transitions to
// the terminal StateDead, its pending vtime events are canceled, and —
// crucially — every shared-memory word is left exactly as it was
// mid-protocol. A crashed thread never runs again (its goroutine is
// reaped at machine shutdown like any other live thread). After the
// state transition the registered kill hooks run, modeling the kernel's
// exit-time robust-futex walk. Kill runs in kernel context; killing an
// already dead or exited thread is a no-op.
//
// A crash seam can call Kill from the thread-side fast path (Proc.do),
// but a thread dies at most once, so it is not per-operation work.
//
//flexlint:coldpath
func (m *Machine) Kill(t *Thread) {
	if t.state == StateDone || t.state == StateDead || t.done {
		return
	}
	m.lockEvent(TraceCrash, -1, tid(t), -1)
	// Cancel every event the thread holds a handle to. The slice timer
	// is canceled by detach on the running path; non-running threads
	// hold none.
	if t.opEv != nil {
		t.opEv.Cancel()
		t.opEv = nil
	}
	// Charge the spin leg only if it is registered: a preempted
	// spinner's leg was charged when it paused.
	m.endSpinLeg(t, t.spinReg)
	switch t.state {
	case StateRunning:
		c := m.cpus[t.cpu]
		m.detach(t)
		t.state = StateDead
		m.setRunnable(-1)
		m.contextSwitch(c, t, m.pickNext(c))
	case StateRunnable:
		// Either on a runqueue shard, or off every queue with a dispatch
		// in flight — the dispatch callback detects the dead state.
		m.runqRemove(t)
		t.state = StateDead
		m.setRunnable(-1)
	case StateBlocked:
		// A wake already in flight (fnFutexWake scheduled) left the
		// futex queue without t; its callback no-ops on StateDead.
		m.futexRemove(t)
		t.state = StateDead
	case StateSleeping:
		// The pending fnSleepWake callback no-ops on StateDead.
		t.state = StateDead
	default: // StateNew: spawned threads are immediately runnable
		t.state = StateDead
	}
	for _, h := range m.killHooks {
		h(t)
	}
}

// KillAt schedules a crash of t at virtual time at. The kill is a
// strong event: pending crashes keep the machine running, so a kill at
// a quiet instant still fires.
func (m *Machine) KillAt(at Time, t *Thread) {
	if at < m.clock {
		panic("sim: KillAt in the past")
	}
	m.eq.Schedule(at, func() { m.Kill(t) })
}

// runqRemove takes t off whichever runqueue shard holds it. Returns
// false if t is on no shard (its dispatch is in flight).
func (m *Machine) runqRemove(t *Thread) bool {
	for _, c := range m.cpus {
		var prev *Thread
		for x := c.qh; x != nil; prev, x = x, x.rqNext {
			if x != t {
				continue
			}
			if prev == nil {
				c.qh = t.rqNext
			} else {
				prev.rqNext = t.rqNext
			}
			if c.qt == t {
				c.qt = prev
			}
			t.rqNext = nil
			c.qlen--
			m.nqueued--
			return true
		}
	}
	return false
}

// futexRemove takes a blocked t off its futex wait queue (t.req.w holds
// the word it parked on). A no-op if a wake in flight already removed it.
func (m *Machine) futexRemove(t *Thread) {
	w := t.req.w
	q := m.futexQ[w]
	for i, x := range q {
		if x != t {
			continue
		}
		m.futexQ[w] = append(q[:i], q[i+1:]...)
		if len(m.futexQ[w]) == 0 {
			delete(m.futexQ, w)
		}
		return
	}
}

// shutdown terminates all live threads deterministically (spawn order) and
// flushes statistics.
func (m *Machine) shutdown() {
	// Flush accounting for threads still spinning (accounting is
	// per-thread and order-independent).
	for _, t := range m.threads {
		if t.spinReg {
			m.accountSpin(t)
		}
	}
	m.stopThreads()
	if m.cfg.RecordRunnable {
		m.timeline.Record(m.clock, m.runnable)
	}
}

// stopThreads terminates every live thread coroutine in spawn order.
func (m *Machine) stopThreads() {
	for _, t := range m.threads {
		if t.done {
			continue // the body returned and unwound itself
		}
		// stop makes the thread's suspended yield return false (or, for a
		// never-dispatched thread, prevents the body from ever starting);
		// it returns once the body has unwound. A coroutine that a panic
		// already ended is done inside iter.Pull, and its stop is a no-op.
		t.stop()
	}
}

// ---- Runqueue (sharded per core) ----
//
// Every hardware context owns a FIFO runqueue shard. Placement is by
// wake affinity: a thread enqueues on the core it last ran on (its
// "home" core; never-ran threads spread round-robin by id). A core with
// an empty shard steals the oldest waiter from its neighbours in a
// deterministic round-robin scan starting at id+1, so no thread waits
// while any core idles, and two runs with the same seed make identical
// stealing decisions.

func (m *Machine) runqLen() int { return m.nqueued }

// homeCPU returns the shard a runnable thread enqueues on.
func (m *Machine) homeCPU(t *Thread) *cpuCtx {
	if t.lastCPU >= 0 {
		return m.cpus[t.lastCPU]
	}
	return m.cpus[t.id%len(m.cpus)]
}

// runqPush enqueues a waking thread: on its home shard when that shard
// is empty (wake affinity), otherwise on the least-loaded shard (wake
// balancing, as CFS's select_task_rq spreads wakeups away from busy
// CPUs) — home wins ties, then lowest id, so placement is
// deterministic. Without balancing a woken waiter can sit behind a deep
// home shard while other cores cycle shallow ones, which stretches
// lock-handover latency under oversubscription.
func (m *Machine) runqPush(t *Thread) {
	home := m.homeCPU(t)
	c := home
	if best := home.qlen; best > 0 {
		for _, v := range m.cpus {
			if v.qlen < best {
				best, c = v.qlen, v
			}
		}
	}
	m.runqPushLocal(c, t)
}

// runqPushLocal enqueues t at the tail of c's shard.
func (m *Machine) runqPushLocal(c *cpuCtx, t *Thread) {
	t.rqNext = nil
	if c.qt == nil {
		c.qh = t
	} else {
		c.qt.rqNext = t
	}
	c.qt = t
	c.qlen++
	m.nqueued++
}

// runqPushFront inserts t at the head of c's shard (wake preemption:
// the woken thread takes the context its victim releases).
func (m *Machine) runqPushFront(c *cpuCtx, t *Thread) {
	t.rqNext = c.qh
	c.qh = t
	if c.qt == nil {
		c.qt = t
	}
	c.qlen++
	m.nqueued++
}

// popLocal dequeues the head of c's shard, or nil if it is empty.
func (m *Machine) popLocal(c *cpuCtx) *Thread {
	t := c.qh
	if t == nil {
		return nil
	}
	c.qh = t.rqNext
	if c.qh == nil {
		c.qt = nil
	}
	t.rqNext = nil
	c.qlen--
	m.nqueued--
	return t
}

// pickNext selects the next thread to run on c: the local shard first,
// then a deterministic round-robin steal from the other shards.
func (m *Machine) pickNext(c *cpuCtx) *Thread {
	if t := m.popLocal(c); t != nil {
		return t
	}
	return m.steal(c)
}

// steal scans the other shards round-robin starting at c.id+1 and takes
// the head (oldest waiter) of the first non-empty one — idle-core
// balancing with a FIFO starvation bound.
func (m *Machine) steal(c *cpuCtx) *Thread {
	if m.nqueued == 0 {
		return nil
	}
	n := len(m.cpus)
	for i := 1; i < n; i++ {
		v := m.cpus[(c.id+i)%n]
		if t := m.popLocal(v); t != nil {
			m.TotalSteals++
			return t
		}
	}
	return nil
}

// idleCPU returns an idle context, preferring t's last context (wake
// affinity, as CFS tries prev_cpu first) and falling back to the
// lowest-id idle one. t may be nil.
func (m *Machine) idleCPU(t *Thread) *cpuCtx {
	if t != nil && t.lastCPU >= 0 {
		if c := m.cpus[t.lastCPU]; c.cur == nil && !c.switching {
			return c
		}
	}
	for _, c := range m.cpus {
		if c.cur == nil && !c.switching {
			return c
		}
	}
	return nil
}

func (m *Machine) setRunnable(delta int64) {
	m.runnable += delta
	if m.cfg.RecordRunnable {
		m.timeline.Record(m.clock, m.runnable)
	}
}

// makeRunnable transitions t to runnable, dispatching immediately if a
// hardware context is idle. With no idle context, a newly woken thread
// may preempt the running thread that has consumed the most slice (CFS
// wakeup preemption): the woken thread's vruntime is far behind the
// hogs', so the real scheduler runs it promptly.
func (m *Machine) makeRunnable(t *Thread) {
	t.state = StateRunnable
	m.setRunnable(+1)
	if c := m.idleCPU(t); c != nil {
		m.contextSwitch(c, nil, t)
		return
	}
	if c := m.wakePreemptVictim(); c != nil {
		m.runqPushFront(c, t)
		m.forcePreempt(c, c.cur)
		return
	}
	m.runqPush(t)
}

// wakePreemptVictim picks the running thread that has consumed the most
// of its current slice, if beyond the wake granularity.
func (m *Machine) wakePreemptVictim() *cpuCtx {
	g := m.cfg.Costs.WakeGranularity
	if g <= 0 {
		return nil
	}
	var best *cpuCtx
	var bestConsumed Time
	for _, c := range m.cpus {
		t := c.cur
		if t == nil || c.switching || t.state != StateRunning {
			continue
		}
		consumed := m.clock - t.sliceStart
		if consumed > g && consumed > bestConsumed {
			best, bestConsumed = c, consumed
		}
	}
	return best
}

// forcePreempt preempts t on c immediately if possible, or at the current
// instruction's boundary otherwise.
func (m *Machine) forcePreempt(c *cpuCtx, t *Thread) {
	if t.opNonPreempt {
		t.needResched = true
		return
	}
	switch t.pending {
	case pendCompute:
		if t.opEv != nil {
			t.pendTicks = t.opEv.At - m.clock
			t.opEv.Cancel()
			t.opEv = nil
		}
	case pendSpin:
		m.pauseSpin(t)
	default:
		// Between-ops instants are synchronous; reaching here means an
		// instruction is in flight without opNonPreempt. Be conservative.
		t.needResched = true
		return
	}
	m.preempt(c, t)
}

// ---- Context switching ----

// contextSwitch performs the switch decision on context c: fires the
// sched_switch hooks, then schedules next's dispatch after the switch
// cost. prev must already be detached by the caller (or nil for idle).
func (m *Machine) contextSwitch(c *cpuCtx, prev, next *Thread) {
	m.TotalSwitches++
	m.tracer.record(m.clock, TraceSwitch, tid(prev), tid(next), -1)
	for _, h := range m.hooks {
		h(prev, next)
	}
	c.cur = nil
	if next == nil {
		c.switching = false
		return
	}
	cost := m.cfg.Costs.CtxSwitch
	if len(m.hooks) > 0 {
		cost += m.cfg.Costs.HookCost
	}
	c.switching = true
	// At most one dispatch per thread is ever in flight (the thread is
	// off every runqueue once picked), so parking the target context on
	// the thread and reusing its pre-bound callback is unambiguous.
	next.dispatchCPU = int32(c.id)
	m.eq.Schedule(m.clock+cost, next.fnDispatch)
}

// dispatch puts t on context c and resumes its pending continuation.
func (m *Machine) dispatch(c *cpuCtx, t *Thread) {
	if c.cur != nil {
		panic("sim: dispatch to busy cpu")
	}
	if t.state == StateDead {
		// t was crashed while its dispatch was in flight; give the
		// context to the next runnable thread instead.
		c.switching = false
		if next := m.pickNext(c); next != nil {
			m.contextSwitch(c, nil, next)
		}
		return
	}
	c.switching = false
	c.cur = t
	t.state = StateRunning
	t.cpu = c.id
	if t.lastCPU >= 0 && t.lastCPU != c.id {
		t.Migrations++
		m.TotalMigrations++
	}
	t.lastCPU = c.id
	slice := m.cfg.Costs.Timeslice - t.slicePenalty
	if slice < m.cfg.Costs.MinSlice {
		slice = m.cfg.Costs.MinSlice
	}
	t.slicePenalty = 0
	t.extGranted = false
	m.grantSlice(t, slice)
	switch t.pending {
	case pendStep:
		m.setCont(t)
	case pendCompute:
		m.scheduleCompute(t, t.pendTicks)
	case pendSpin:
		m.resumeSpin(t)
	}
}

// detach removes t from its context's bookkeeping (slice timer).
func (m *Machine) detach(t *Thread) {
	if t.sliceEv != nil {
		t.sliceEv.Cancel()
		t.sliceEv = nil
	}
	t.cpu = -1
	t.needResched = false
}

// renewSlice grants t a fresh timeslice (used when there is nothing else
// to run).
func (m *Machine) renewSlice(t *Thread) {
	if t.sliceEv != nil {
		t.sliceEv.Cancel()
	}
	m.grantSlice(t, m.cfg.Costs.Timeslice)
}

// grantSlice starts a timeslice of the given length for t, as perturbed
// by the fault injector (clamped to at least 1 tick), and arms its
// expiry timer.
func (m *Machine) grantSlice(t *Thread, slice Time) {
	if m.fi != nil {
		if slice = m.fi.SliceGrant(t, slice); slice < 1 {
			slice = 1
		}
	}
	t.sliceStart = m.clock
	t.sliceEnd = m.clock + slice
	t.sliceEv = m.eq.Schedule(t.sliceEnd, t.fnSlice)
}

// sliceFire fires when t's timeslice ends. The callback is pre-bound per
// thread, so staleness is detected by event identity: the machine records
// the event whose callback is executing, and only the thread's live slice
// timer may act (a canceled timer never fires, and a fired event cannot
// be recycled into a new handle until its callback has returned).
func (m *Machine) sliceFire(t *Thread) {
	if t.sliceEv == nil || t.sliceEv != m.firing {
		return // stale timer
	}
	c := m.cpus[t.cpu]
	if c.cur != t || t.state != StateRunning {
		return // stale timer
	}
	t.sliceEv = nil
	// Timeslice extension (the rseq-patch behaviour of §2.4): honor a
	// user-space request once per slice, penalizing the next slice.
	if t.extendSlice && !t.extGranted && m.cfg.Costs.SliceExt > 0 {
		t.extGranted = true
		t.slicePenalty = m.cfg.Costs.SliceExt
		t.sliceEnd = m.clock + m.cfg.Costs.SliceExt
		t.sliceEv = m.eq.Schedule(t.sliceEnd, t.fnSlice)
		return
	}
	if m.runqLen() == 0 {
		m.renewSlice(t)
		return
	}
	m.forcePreempt(c, t)
}

// preempt moves the running t to the tail of c's shard and switches c to
// the next runnable thread (local shard first, then stealing). The next
// thread is picked before t is re-queued so a preemption with other
// runnable work never degenerates into a self-switch; with all shards
// empty (fault-injected preemption) it still self-switches, firing the
// sched_switch hooks the monitor watches.
func (m *Machine) preempt(c *cpuCtx, t *Thread) {
	t.Preemptions++
	m.TotalPreemptions++
	m.detach(t)
	t.state = StateRunnable
	next := m.pickNext(c)
	m.runqPushLocal(c, t)
	if next == nil {
		next = m.popLocal(c)
	}
	m.contextSwitch(c, t, next)
}

// finishOp delivers the current op's result at its instruction
// boundary: the boundary seams run, and a thread still on its CPU is
// named to continue to its next operation.
func (m *Machine) finishOp(t *Thread) {
	t.pending = pendStep
	if m.atBoundary(t) {
		m.setCont(t)
	}
}

// atBoundary runs the instruction-boundary seams for t, whose op just
// completed: the crash seam, the forced-preemption seam, then the
// deferred reschedule. It reports whether t still holds its CPU.
//
// Whichever side of the coroutine handoff executed the op runs the
// seams: finishOp after an event-completed op, Proc.boundary after a
// thread-side inline op. The two sides never run at the same time, so
// either sees the same machine and thread state at the same virtual
// instant, and the injector draws from its stream in the same order.
// Only event callbacks (sliceFire, forcePreempt) set needResched, and it
// is false whenever a thread resumes: detach clears it each time a
// thread leaves its CPU, and finishOp runs this function before setCont.
// So the deferred reschedule fires only from finishOp.
func (m *Machine) atBoundary(t *Thread) bool {
	// Fault injection: an adversarial scheduler may force an involuntary
	// switch at any instruction boundary — this is exactly the window
	// attack of the Listing-2/3 analysis (preempt between the label the
	// monitor classifies and the instruction that completes the region).
	// With an empty runqueue this degenerates to a self-switch, which
	// still fires the sched_switch hooks the monitor watches.
	if m.ci != nil && m.ci.CrashAtBoundary(t) {
		m.Kill(t)
		return false
	}
	if m.fi != nil && m.fi.PreemptAtBoundary(t) {
		t.needResched = false
		m.preempt(m.cpus[t.cpu], t)
		return false
	}
	if t.needResched {
		t.needResched = false
		if m.runqLen() != 0 {
			m.preempt(m.cpus[t.cpu], t)
			return false
		}
		m.renewSlice(t)
	}
	return true
}

// onExit handles a thread whose body returned.
func (m *Machine) onExit(t *Thread) {
	m.lockEvent(TraceExit, -1, tid(t), -1)
	c := m.cpus[t.cpu]
	m.detach(t)
	t.state = StateDone
	m.setRunnable(-1)
	m.contextSwitch(c, t, m.pickNext(c))
}
