// Package check is an online invariant checker for lock algorithms: it
// consumes the machine's lock-event stream (the PR-1 trace model) and
// verifies run-wide correctness properties — mutual exclusion, no lost
// wakeup, bounded starvation, no stalled waiters, deadlock freedom and
// acquisition-count conservation. It exists because throughput numbers
// cannot distinguish "slow" from "wrong": a lock that loses a wakeup or
// admits two holders under an adversarial schedule still posts
// plausible-looking counters. The checker turns such runs into
// structured, replayable failures.
//
// Attach before Run with Attach, then call Finish with the quiesced
// time Run returned. Violations are also surfaced through internal/obs
// (a counter per invariant) and as TraceViolation instants in the
// trace, so a failing schedule can be opened in the Perfetto viewer at
// the exact violation timestamp.
package check

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Invariant names a checked property.
type Invariant string

// The checked invariants.
const (
	// MutualExclusion: at most one thread holds a lock at any time
	// (a second Acquire before the holder's Release).
	MutualExclusion Invariant = "mutual-exclusion"
	// LostWakeup: a thread parked on a lock's futex with no holder left
	// to wake it — every Block must have a matching Wake or run-end.
	LostWakeup Invariant = "lost-wakeup"
	// Starvation: a continuously-waiting thread was passed more than K
	// times by later arrivals.
	Starvation Invariant = "starvation"
	// StalledWaiter: a waiter made no progress on a free, inactive lock
	// for longer than the stall bound (e.g. a spinner whose handover
	// never came).
	StalledWaiter Invariant = "stalled-waiter"
	// Deadlock: the event queue drained before the horizon with threads
	// still blocked — the silent-hang failure mode, as a structured
	// verdict with an owner/waiter dump.
	Deadlock Invariant = "deadlock"
	// Conservation: per lock, acquisitions == releases + live holders.
	Conservation Invariant = "conservation"
	// OrphanedLock: a crashed thread left the lock unusable — dead
	// holder never released, or a dead participant left live waiters
	// stranded with nobody to hand over. This is the *clean* crash
	// verdict: a lock under a crash plan must either recover or orphan
	// deterministically, never hang without attribution.
	OrphanedLock Invariant = "orphaned-lock"
)

// Code returns the sim.Violation* code carried on TraceViolation events.
func (i Invariant) Code() int32 { return sim.ViolationCode(string(i)) }

// Violation is one detected invariant breach.
type Violation struct {
	Invariant Invariant
	At        sim.Time
	Lock      int32 // lock id, -1 for machine-wide (deadlock)
	LockName  string
	Thread    int32 // offending / affected thread, -1 if not applicable
	Detail    string
}

func (v Violation) String() string {
	where := v.LockName
	if where == "" {
		where = fmt.Sprintf("lock %d", v.Lock)
	}
	if v.Lock < 0 {
		where = "machine"
	}
	return fmt.Sprintf("[%s] t=%d %s thread=%d: %s", v.Invariant, v.At, where, v.Thread, v.Detail)
}

// Options tunes the checker. The zero value selects the defaults.
type Options struct {
	// StarvationK is the pass bound: a continuously-waiting thread
	// overtaken by more than K acquisitions is starved. The default is
	// deliberately huge (100000) because unfair-by-design locks (TAS,
	// backoff) legitimately pass waiters; tighten it per run to study
	// fairness.
	StarvationK int64
	// StallBound is how long (virtual ticks) a waiter may sit on a
	// free, inactive lock before being declared stalled. Default 1e6.
	StallBound sim.Time
	// MaxViolations caps stored violations (counters keep counting).
	// Default 32.
	MaxViolations int
	// Registry, when set, receives a counter per violated invariant
	// ("check.violation.<name>").
	Registry *obs.Registry
	// EmitEvents, when set, emits a TraceViolation event at each
	// violation so traces carry the verdicts (off by default; the fuzz
	// harness turns it on).
	EmitEvents bool
}

func (o *Options) fill() {
	if o.StarvationK <= 0 {
		o.StarvationK = 100_000
	}
	if o.StallBound <= 0 {
		o.StallBound = 1_000_000
	}
	if o.MaxViolations <= 0 {
		o.MaxViolations = 32
	}
}

// waiterState tracks one thread waiting on one lock.
type waiterState struct {
	since   sim.Time
	passes  int64
	flagged bool // starvation already reported
}

// lockThread is one thread's state on one lock.
type lockThread struct {
	holding bool
	holdAt  sim.Time // acquire time, while holding
	waiting bool
	waiterState
	// touched: the thread emitted an event on this lock while alive, so
	// its crash is attributed to the lock.
	touched bool
}

// lockState is the checker's per-lock view, rebuilt purely from events.
type lockState struct {
	threads  []lockThread // indexed by slot(tid)
	nholders int
	nwaiting int
	acquires int64
	releases int64
	// lastActivity: the lock's latest event of any kind.
	lastActivity sim.Time
	// lastProgress: last time ownership changed (acquire, release,
	// handover, owner-death repair, recovery, abandon). Spinning waiters
	// refresh lastActivity forever; this is the signal that the lock
	// itself stopped moving.
	lastProgress sim.Time
	// ownerDied: the kernel robust walk flagged this lock's holder dead
	// and no claimer has recovered it yet.
	ownerDied bool
	// crashPart: a thread that later crashed participated in this lock
	// (basis for attributing stranded waiters to the crash).
	crashPart bool
}

// at returns slot s's state on the lock, growing the table on first
// sight. The pointer is valid until the next call that can grow it.
func (ls *lockState) at(s int) *lockThread {
	if s >= len(ls.threads) {
		ls.threads = grow(ls.threads, s+1, lockThread{})
	}
	return &ls.threads[s]
}

// wait enters lt into the lock's waiter set, unless already waiting.
func (ls *lockState) wait(lt *lockThread, at sim.Time) {
	if !lt.waiting {
		lt.waiting = true
		lt.waiterState = waiterState{since: at}
		ls.nwaiting++
	}
}

// unwait removes slot s from the lock's waiter set, if present.
func (ls *lockState) unwait(s int) {
	if s < len(ls.threads) && ls.threads[s].waiting {
		ls.threads[s].waiting = false
		ls.nwaiting--
	}
}

// threadState is the checker's per-thread view.
type threadState struct {
	// blockIntent is the lock named in the thread's most recent
	// TraceLockBlock — the lock it is about to park on; -1 for none.
	blockIntent int32
	// parked: the thread is parked on a futex (scheduler TraceBlock
	// seen, no TraceWake yet) since parkedAt, on lock parkedOn (-2 when
	// the park was not lock-related).
	parked   bool
	parkedOn int32
	parkedAt sim.Time
	// dead: the thread crashed (TraceCrash).
	dead bool
}

// Checker consumes lock events and verifies invariants online. It is a
// sim.LockObserver; attach with Attach (which uses AddLockObserver so
// it coexists with the obs stats observer).
//
// State lives in dense slices — locks by their RegisterLockName id,
// threads by slot(tid) — grown the first time an id appears, so the
// per-event path neither hashes nor allocates, and end-of-run scans
// visit locks and threads in ascending id order.
type Checker struct {
	m          *sim.Machine
	o          Options
	locks      []lockState
	threads    []threadState
	violations []Violation
	// Total counts all violations, including ones beyond MaxViolations.
	Total    int64
	finished bool
}

// Attach installs a checker on m. Call before Run.
func Attach(m *sim.Machine, o Options) *Checker {
	o.fill()
	c := &Checker{m: m, o: o}
	m.AddLockObserver(c)
	return c
}

// Violations returns the stored violations (post-Finish for the full
// set; online ones are available at any time).
func (c *Checker) Violations() []Violation { return c.violations }

// lock returns lock id's state, growing the table on first sight. The
// pointer is valid until the next call that can grow the table.
func (c *Checker) lock(id int32) *lockState {
	if int(id) >= len(c.locks) {
		c.locks = grow(c.locks, int(id)+1, lockState{})
	}
	return &c.locks[id]
}

// thread returns tid's state, growing the table on first sight.
func (c *Checker) thread(tid int32) *threadState {
	s := slot(tid)
	if s >= len(c.threads) {
		c.threads = grow(c.threads, s+1, threadState{blockIntent: -1})
	}
	return &c.threads[s]
}

// dead reports whether slot s crashed.
func (c *Checker) dead(s int) bool { return s < len(c.threads) && c.threads[s].dead }

// parkedOn returns the lock slot s is parked on, and whether it is
// parked at all.
func (c *Checker) parkedOn(s int) (int32, bool) {
	if s >= len(c.threads) || !c.threads[s].parked {
		return 0, false
	}
	return c.threads[s].parkedOn, true
}

// violate records one violation.
//
//flexlint:coldpath
func (c *Checker) violate(v Violation) {
	c.Total++
	if c.o.Registry != nil {
		c.o.Registry.Counter("check.violation." + string(v.Invariant)).Inc()
	}
	if len(c.violations) < c.o.MaxViolations {
		c.violations = append(c.violations, v)
	}
	if c.o.EmitEvents {
		c.m.KernelLockEvent(sim.TraceViolation, v.Lock, v.Thread, v.Invariant.Code())
	}
}

// LockEvent implements sim.LockObserver.
func (c *Checker) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	switch kind {
	case sim.TraceViolation, sim.TraceMonitorStale,
		sim.TracePolicySwitch, sim.TraceNPCSUp, sim.TraceNPCSDown:
		return // policy / self-emitted events carry no lock state
	case sim.TraceCrash:
		c.crashed(tid)
		return
	case sim.TraceBlock:
		// Scheduler-level park: bind it to the lock last named in a
		// TraceLockBlock by this thread (if any).
		th := c.thread(tid)
		th.parked, th.parkedOn, th.parkedAt = true, th.blockIntent, at
		if th.parkedOn < 0 {
			th.parkedOn = -2
		}
		return
	case sim.TraceWake:
		c.thread(tid).parked = false
		return
	case sim.TraceSleep, sim.TraceExit, sim.TraceSwitch:
		return
	}
	if lock < 0 {
		return
	}
	// A thread emitting a lock event is on-CPU: it cannot be parked.
	// (Kernel-emitted crash events name a dead thread instead; those are
	// never parked — crashed() cleared them.)
	th := c.thread(tid)
	th.parked = false
	ls := c.lock(lock)
	ls.lastActivity = at
	switch kind {
	case sim.TraceAcquire, sim.TraceRelease, sim.TraceHandover,
		sim.TraceOwnerDead, sim.TraceRecover, sim.TraceAbandon:
		ls.lastProgress = at
	}
	lt := ls.at(slot(tid))
	if !th.dead {
		lt.touched = true
	}
	switch kind {
	case sim.TraceAcquire:
		if ls.nholders > 0 {
			c.doubleAcquire(at, lock, tid, ls)
		}
		if !lt.holding {
			lt.holding = true
			ls.nholders++
		}
		lt.holdAt = at
		ls.acquires++
		ls.unwait(slot(tid))
		th.blockIntent = -1
		if ls.nwaiting == 0 {
			return
		}
		// Ascending tid order, so that two waiters crossing the
		// starvation threshold on the same acquire report in a fixed
		// order.
		for s := range ls.threads {
			w := &ls.threads[s]
			if !w.waiting {
				continue
			}
			w.passes++
			if w.passes > c.o.StarvationK && !w.flagged {
				w.flagged = true
				c.starved(at, lock, slotTID(s), w.waiterState)
			}
		}
	case sim.TraceRelease:
		if !lt.holding {
			c.violate(Violation{
				Invariant: Conservation, At: at, Lock: lock,
				LockName: c.m.LockName(lock), Thread: tid,
				Detail: "release without a matching acquire",
			})
		} else {
			lt.holding = false
			ls.nholders--
		}
		ls.releases++
	case sim.TraceSpinStart:
		if !lt.holding {
			ls.wait(lt, at)
		}
	case sim.TraceLockBlock:
		th.blockIntent = lock
		ls.wait(lt, at)
	case sim.TraceOwnerDead:
		// Kernel robust walk: the dead holder's ownership ends here.
		// Counting it as a release keeps conservation balanced through
		// the recovery; if the thread died inside an acquire window
		// before its Acquire event, there is nothing to balance.
		ls.crashPart = true
		ls.ownerDied = true
		if lt.holding {
			lt.holding = false
			ls.nholders--
			ls.releases++
		}
	case sim.TraceRecover:
		// A claimer took over the owner-died lock (EOWNERDEAD); its own
		// Acquire event follows.
		ls.ownerDied = false
	case sim.TraceAbandon:
		// A dead or stale waiter's queue node was unlinked; it is no
		// longer waiting (a live removed waiter re-enters from scratch
		// and re-announces itself).
		if arg >= 0 {
			ls.unwait(slot(arg))
		}
	}
}

// doubleAcquire reports tid acquiring lock while another thread holds
// it, against the lowest-tid holder so the violation detail is stable
// when (pathologically) more than one thread holds the lock.
//
//flexlint:coldpath
func (c *Checker) doubleAcquire(at sim.Time, lock, tid int32, ls *lockState) {
	for s := range ls.threads {
		if h := ls.threads[s]; h.holding {
			c.violate(Violation{
				Invariant: MutualExclusion, At: at, Lock: lock,
				LockName: c.m.LockName(lock), Thread: tid,
				Detail: fmt.Sprintf("acquired while thread %d holds it (since t=%d)", slotTID(s), h.holdAt),
			})
			return
		}
	}
}

// starved reports waiter tid passed more than StarvationK times.
//
//flexlint:coldpath
func (c *Checker) starved(at sim.Time, lock, tid int32, w waiterState) {
	c.violate(Violation{
		Invariant: Starvation, At: at, Lock: lock,
		LockName: c.m.LockName(lock), Thread: tid,
		Detail: fmt.Sprintf("waiting since t=%d, passed %d times (K=%d)", w.since, w.passes, c.o.StarvationK),
	})
}

// crashed processes a TraceCrash: remember the corpse, clear its
// transient waiter state everywhere, and attribute the crash to every
// lock it participated in. Dead holders deliberately stay holders — a
// lock held by a corpse is the orphan candidate Finish looks for.
//
//flexlint:coldpath
func (c *Checker) crashed(tid int32) {
	th := c.thread(tid)
	th.dead = true
	th.parked = false
	th.blockIntent = -1
	if c.o.Registry != nil {
		c.o.Registry.Counter("check.crashes").Inc()
	}
	s := slot(tid)
	for id := range c.locks {
		ls := &c.locks[id]
		if s < len(ls.threads) && ls.threads[s].touched {
			ls.crashPart = true
			ls.unwait(s)
		}
	}
}

// liveHolders counts holders that have not crashed. A dead thread still
// "holds" for conservation purposes, but it will never wake anyone —
// liveness exemptions must not credit it (the bug this replaces: a dead
// holder masked real stalls).
func (c *Checker) liveHolders(ls *lockState) int {
	n := 0
	for s := range ls.threads {
		if ls.threads[s].holding && !c.dead(s) {
			n++
		}
	}
	return n
}

// inState reports whether tid names a spawned thread in state st.
func inState(threads []*sim.Thread, tid int32, st sim.State) bool {
	return tid >= 0 && int(tid) < len(threads) && threads[tid].State() == st
}

// Finish runs the end-of-run checks. quiesced is the value Run returned
// (the time the machine went quiescent). Call exactly once, after Run.
// Results are deterministic: end-of-run scans iterate in id order.
func (c *Checker) Finish(quiesced sim.Time) []Violation {
	if c.finished {
		return c.violations
	}
	c.finished = true
	drained := c.m.Deadlocked()
	threads := c.m.Threads()

	// Crash triage first: classify locks wedged by a dead participant so
	// each reports one structured orphaned-lock verdict instead of a
	// spray of deadlock / lost-wakeup / stalled noise. Crash-free runs
	// have no dead thread and skip all of this.
	orphaned := make([]bool, len(c.locks))
	norphaned := 0
	if c.anyDead() {
		for id := range c.locks {
			ls := &c.locks[id]
			if dh := ls.nholders - c.liveHolders(ls); dh > 0 {
				orphaned[id] = true
				norphaned++
				c.violate(Violation{
					Invariant: OrphanedLock, At: quiesced, Lock: int32(id),
					LockName: c.m.LockName(int32(id)), Thread: -1,
					Detail: fmt.Sprintf("%d dead holder(s) never released the lock", dh),
				})
				continue
			}
			if c.liveHolders(ls) > 0 || !ls.crashPart {
				continue
			}
			if c.strandedOn(int32(id), ls, quiesced, drained, threads) {
				orphaned[id] = true
				norphaned++
				c.violate(Violation{
					Invariant: OrphanedLock, At: quiesced, Lock: int32(id),
					LockName: c.m.LockName(int32(id)), Thread: -1,
					Detail: "crashed participant left live waiters stranded with no holder",
				})
			}
		}
	}

	if drained && !(norphaned > 0 && c.crashExplainsDrain(orphaned)) {
		c.violate(Violation{
			Invariant: Deadlock, At: quiesced, Lock: -1, Thread: -1,
			Detail: c.m.DeadlockReport(),
		})
	}
	// Lost wakeups: threads still parked at run end on a lock nobody
	// holds. After a drain no future wake can arrive, so any such park
	// is lost; if the run hit its horizon instead, require the park and
	// the lock's inactivity to both exceed the stall bound so in-flight
	// wake chains are not miscounted.
	for s := range c.threads {
		th := &c.threads[s]
		tid := slotTID(s)
		if !th.parked || !inState(threads, tid, sim.StateBlocked) {
			continue
		}
		lockID := th.parkedOn
		if lockID < 0 {
			continue // parked on something that is not a lock (barrier etc.)
		}
		if int(lockID) < len(orphaned) && orphaned[lockID] {
			continue // already reported as the orphaned-lock verdict
		}
		ls := c.lock(lockID)
		if c.liveHolders(ls) > 0 {
			continue // a live holder may still wake it; deadlock check covers the rest
		}
		if !drained {
			if quiesced-th.parkedAt <= c.o.StallBound || quiesced-ls.lastActivity <= c.o.StallBound {
				continue
			}
		}
		c.violate(Violation{
			Invariant: LostWakeup, At: quiesced, Lock: lockID,
			LockName: c.m.LockName(lockID), Thread: tid,
			Detail: fmt.Sprintf("parked at t=%d, lock free since t=%d, nobody left to wake it", th.parkedAt, ls.lastActivity),
		})
	}
	// Stalled waiters: non-parked waiters (spinners) stuck on a free,
	// inactive lock. Only meaningful when the run hit its horizon — a
	// quiesced machine has no spinners by construction.
	for id := range c.locks {
		ls := &c.locks[id]
		if (id < len(orphaned) && orphaned[id]) || c.liveHolders(ls) > 0 {
			continue
		}
		for s := range ls.threads {
			w := &ls.threads[s]
			if !w.waiting {
				continue
			}
			if _, isParked := c.parkedOn(s); isParked {
				continue
			}
			wtid := slotTID(s)
			if wtid < 0 || int(wtid) >= len(threads) || threads[wtid].State() == sim.StateDone ||
				threads[wtid].State() == sim.StateDead {
				continue
			}
			if quiesced-w.since > c.o.StallBound && quiesced-ls.lastActivity > c.o.StallBound {
				c.violate(Violation{
					Invariant: StalledWaiter, At: quiesced, Lock: int32(id),
					LockName: c.m.LockName(int32(id)), Thread: wtid,
					Detail: fmt.Sprintf("waiting since t=%d on a lock free and inactive since t=%d", w.since, ls.lastActivity),
				})
			}
		}
	}
	// Conservation: acquisitions == releases + holders left, per lock.
	// Dead holders still count as holders here — a kernel-recovered lock
	// balanced its books through the TraceOwnerDead release instead.
	for id := range c.locks {
		ls := &c.locks[id]
		if ls.acquires != ls.releases+int64(ls.nholders) {
			c.violate(Violation{
				Invariant: Conservation, At: quiesced, Lock: int32(id),
				LockName: c.m.LockName(int32(id)), Thread: -1,
				Detail: fmt.Sprintf("%d acquires vs %d releases + %d live holders", ls.acquires, ls.releases, ls.nholders),
			})
		}
	}
	return c.violations
}

// anyDead reports whether any thread crashed.
func (c *Checker) anyDead() bool {
	for s := range c.threads {
		if c.threads[s].dead {
			return true
		}
	}
	return false
}

// strandedOn reports whether some live thread is durably stuck on lock
// id: parked on it, or in its waiter set, past the point where progress
// could still be in flight (any leftover wait is terminal once the
// machine drained; horizon-ended runs apply the stall bound).
func (c *Checker) strandedOn(id int32, ls *lockState, quiesced sim.Time, drained bool, threads []*sim.Thread) bool {
	for s := range c.threads {
		th := &c.threads[s]
		if !th.parked || th.parkedOn != id || !inState(threads, slotTID(s), sim.StateBlocked) {
			continue
		}
		if drained || quiesced-th.parkedAt > c.o.StallBound {
			return true
		}
	}
	for s := range ls.threads {
		w := &ls.threads[s]
		wtid := slotTID(s)
		if !w.waiting || wtid < 0 || int(wtid) >= len(threads) {
			continue
		}
		if st := threads[wtid].State(); st == sim.StateDone || st == sim.StateDead {
			continue
		}
		if drained || (quiesced-w.since > c.o.StallBound && quiesced-ls.lastProgress > c.o.StallBound) {
			return true
		}
	}
	return false
}

// crashExplainsDrain reports whether every thread still blocked at the
// drain is parked on a lock already reported orphaned — in which case
// the drain is the orphan's consequence, not a separate deadlock.
func (c *Checker) crashExplainsDrain(orphaned []bool) bool {
	for _, th := range c.m.Threads() {
		if th.State() != sim.StateBlocked {
			continue
		}
		lk, ok := c.parkedOn(slot(int32(th.ID())))
		if !ok || lk < 0 || int(lk) >= len(orphaned) || !orphaned[lk] {
			return false
		}
	}
	return true
}
