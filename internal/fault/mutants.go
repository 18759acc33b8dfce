package fault

import (
	"repro/internal/locks"
	"repro/internal/sim"
)

// Mutant is a deliberately broken lock used to prove the invariant
// checker can fail: each carries the classic bug it reintroduces, the
// invariant it is expected to trip, and a provoking plan that makes the
// failure deterministic within a short horizon.
type Mutant struct {
	Name string
	Doc  string
	// Breaks names the invariant (internal/check constant) the checker
	// is expected to report.
	Breaks string
	// NeedsMonitor marks mutants that read the NPCS word (they must run
	// in a flexguard-style env with the Preemption Monitor attached).
	NeedsMonitor bool
	// LivenessOnly marks mutants whose bug strands threads without any
	// racy memory access — the race auditor is expected to stay silent.
	LivenessOnly bool
	// Plan provokes the bug (zero = any contended schedule does).
	Plan Plan
	// New constructs an instance; npcs is the monitor's counter word
	// (nil when NeedsMonitor is false).
	New func(m *sim.Machine, npcs *sim.Word, name string) locks.Lock
}

// Mutants returns the self-test registry.
func Mutants() []Mutant {
	return []Mutant{
		{
			Name:   "tas-noatomic",
			Doc:    "test-and-set without the winning CAS: check-then-act race admits two holders",
			Breaks: "mutual-exclusion",
			New: func(m *sim.Machine, _ *sim.Word, name string) locks.Lock {
				lid := m.RegisterLockName(name)
				return &tasNoAtomic{v: m.NewLockWord(lid, ".v", 0), lid: lid}
			},
		},
		{
			Name:   "mcs-nohandover",
			Doc:    "MCS that skips successor handover: the next waiter spins on its node forever",
			Breaks: "stalled-waiter",
			New: func(m *sim.Machine, _ *sim.Word, name string) locks.Lock {
				return newMCSNoHandover(m, name)
			},
		},
		{
			Name:         "flexguard-nowake",
			Doc:          "flexguard-style lock that ignores the NPCS blocking protocol on release: waiters it parked are never woken",
			Breaks:       "lost-wakeup",
			NeedsMonitor: true,
			// Pin NPCS nonzero so every contended waiter takes the
			// blocking path — the release-side bug then strands them all.
			Plan: Plan{StuckEnabled: true, StuckNPCS: 1},
			New: func(m *sim.Machine, npcs *sim.Word, name string) locks.Lock {
				lid := m.RegisterLockName(name)
				return &fgNoWake{val: m.NewLockWord(lid, ".val", 0), npcs: npcs, lid: lid}
			},
		},
		{
			Name:         "robust-norecover",
			Doc:          "robust futex lock detached from the kernel robust list: a dead holder's word is never flagged OWNER_DIED and its waiters stay parked forever",
			Breaks:       "orphaned-lock",
			LivenessOnly: true,
			// Kill the holder at its first in-CS boundary; with recovery
			// unwired the crash must surface as an orphaned-lock verdict.
			Plan: Plan{CrashHoldProb: 1},
			New: func(m *sim.Machine, _ *sim.Word, name string) locks.Lock {
				return locks.NewRobustBlocking(m, nil, name)
			},
		},
	}
}

// MutantByName resolves a mutant from the registry.
func MutantByName(name string) (Mutant, bool) {
	for _, mu := range Mutants() {
		if mu.Name == name {
			return mu, true
		}
	}
	return Mutant{}, false
}

// MutantNames lists the registry in order.
func MutantNames() []string {
	var out []string
	for _, mu := range Mutants() {
		out = append(out, mu.Name)
	}
	return out
}

// ---- tas-noatomic ----

// tasNoAtomic is a TAS lock with the atomicity removed: it observes the
// lock free with a plain load and claims it with a plain store. Two
// threads whose load/store windows interleave both "acquire".
type tasNoAtomic struct {
	v   *sim.Word
	lid int32
}

func (l *tasNoAtomic) Lock(p *sim.Proc) {
	for {
		if p.Load(l.v) == 0 {
			p.Store(l.v, 1) // BUG: check-then-act, no CAS
			p.LockEvent(sim.TraceAcquire, l.lid)
			return
		}
		p.LockEvent(sim.TraceSpinStart, l.lid)
		p.SpinOn(func() bool { return l.v.V() != 0 }, l.v)
	}
}

func (l *tasNoAtomic) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.lid)
	p.Store(l.v, 0)
}

// ---- mcs-nohandover ----

// mcsNoHandover is a faithful MCS lock except that Unlock forgets the
// final store clearing the successor's locked flag: the handover
// message is dropped and the successor spins forever.
type mcsNoHandover struct {
	m     *sim.Machine
	tail  *sim.Word
	nodes map[int]*mutNode // allocated with the first node
	lid   int32
}

type mutNode struct {
	next   *sim.Word
	locked *sim.Word
}

func newMCSNoHandover(m *sim.Machine, name string) *mcsNoHandover {
	lid := m.RegisterLockName(name)
	return &mcsNoHandover{m: m, tail: m.NewLockWord(lid, ".tail", 0), lid: lid}
}

// node returns (allocating on first use) thread id's queue node.
//
//flexlint:coldpath
func (l *mcsNoHandover) node(id int) *mutNode {
	n := l.nodes[id]
	if n == nil {
		if l.nodes == nil {
			l.nodes = make(map[int]*mutNode)
		}
		n = &mutNode{
			next:   l.m.NewLockWordAt(l.lid, ".n", id, ".next", 0),
			locked: l.m.NewLockWordAt(l.lid, ".n", id, ".locked", 0),
		}
		l.nodes[id] = n
	}
	return n
}

func (l *mcsNoHandover) Lock(p *sim.Proc) {
	qn := l.node(p.ID())
	p.Store(qn.next, 0)
	p.Store(qn.locked, 1)
	pred := p.Xchg(l.tail, uint64(p.ID()+1))
	if pred == 0 {
		p.LockEvent(sim.TraceAcquire, l.lid)
		return
	}
	p.Store(l.node(int(pred-1)).next, uint64(p.ID()+1))
	p.LockEvent(sim.TraceSpinStart, l.lid)
	p.SpinOn(func() bool { return qn.locked.V() == 1 }, qn.locked)
	p.LockEvent(sim.TraceAcquire, l.lid)
}

func (l *mcsNoHandover) Unlock(p *sim.Proc) {
	qn := l.node(p.ID())
	p.LockEvent(sim.TraceRelease, l.lid)
	if p.Load(qn.next) == 0 {
		if p.CAS(l.tail, uint64(p.ID()+1), 0) == uint64(p.ID()+1) {
			return
		}
		p.SpinOn(func() bool { return qn.next.V() == 0 }, qn.next)
	}
	// BUG: the successor is known but its locked flag is never cleared —
	// the handover store is missing.
}

// ---- flexguard-nowake ----

// fgNoWake follows FlexGuard's waiting protocol (spin while NPCS == 0,
// otherwise park on the futex) but its release path ignores the
// protocol entirely: a plain store, no wake. Under a plan that pins
// NPCS nonzero, every contended waiter parks and is stranded.
type fgNoWake struct {
	val  *sim.Word
	npcs *sim.Word
	lid  int32
}

func (l *fgNoWake) Lock(p *sim.Proc) {
	if p.CAS(l.val, 0, 1) == 0 {
		p.LockEvent(sim.TraceAcquire, l.lid)
		return
	}
	for {
		if l.npcs == nil || p.Load(l.npcs) == 0 {
			p.LockEvent(sim.TraceSpinStart, l.lid)
			p.SpinOn(func() bool { return l.val.V() != 0 && (l.npcs == nil || l.npcs.V() == 0) }, l.val, l.npcs)
			if p.CAS(l.val, 0, 1) == 0 {
				p.LockEvent(sim.TraceAcquire, l.lid)
				return
			}
			continue
		}
		state := p.Xchg(l.val, 2)
		if state == 0 {
			p.LockEvent(sim.TraceAcquire, l.lid)
			return
		}
		p.LockEvent(sim.TraceLockBlock, l.lid)
		p.FutexWait(l.val, 2)
	}
}

func (l *fgNoWake) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.lid)
	// BUG: ignores the LockedWithBlockedWaiters state the waiters
	// installed — releases with a plain store and never calls FutexWake.
	p.Store(l.val, 0)
}
