package locks

import "repro/internal/sim"

// Blocking is the pure blocking lock of §2.1.1/§5.1: waiters always park
// in the kernel (no busy-waiting at all) and every release issues a
// futex_wake. This matches the paper's characterization in Figure 5a — a
// thread acquiring several times in a row implies "a succession of
// futex_wake()s", i.e. the unconditional-wake variant, unlike glibc's
// 0/1/2 mutex which skips wakes when no waiter is marked (see Posix).
type Blocking struct {
	v   *sim.Word // 0 unlocked, 1 locked
	lid int32
}

// NewBlocking returns a pure blocking lock.
func NewBlocking(m *sim.Machine, name string) *Blocking {
	lid := m.RegisterLockName(name)
	return &Blocking{v: m.NewLockWord(lid, ".blk", 0), lid: lid}
}

// Lock implements Lock.
func (l *Blocking) Lock(p *sim.Proc) {
	for p.Xchg(l.v, 1) != 0 {
		p.LockEvent(sim.TraceLockBlock, l.lid)
		p.FutexWait(l.v, 1)
	}
	p.LockEvent(sim.TraceAcquire, l.lid)
}

// Unlock implements Lock.
func (l *Blocking) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.lid)
	p.Store(l.v, 0)
	if p.FutexWake(l.v, 1) > 0 {
		p.LockEvent(sim.TraceLockWake, l.lid)
	}
}

// Posix models the default POSIX mutex (§2.2): glibc's three-state futex
// lock (Drepper's "Futexes Are Tricky" variant) with a short spin-then-
// park phase before blocking. Releases skip the wake syscall when no
// waiter has marked the lock, which makes it steal-prone and cheaper per
// handover than the pure blocking lock — but the heuristic spin budget
// buys little once the lock is contended (the paper's point in §2.2).
type Posix struct {
	v   *sim.Word
	lid int32
}

// posixSpin is the fixed spin-then-park budget in spin iterations
// (glibc's MAX_ADAPTIVE_COUNT-scale heuristic: ≈ a context switch).
const posixSpin = 100

// NewPosix returns a POSIX-style mutex.
func NewPosix(m *sim.Machine, name string) *Posix {
	lid := m.RegisterLockName(name)
	return &Posix{v: m.NewLockWord(lid, ".posix", 0), lid: lid}
}

// Lock implements Lock.
func (l *Posix) Lock(p *sim.Proc) {
	if p.CAS(l.v, 0, 1) == 0 {
		p.LockEvent(sim.TraceAcquire, l.lid)
		return
	}
	// Spin-then-park: a short busy-wait whose budget is the heuristic the
	// paper argues cannot be tuned reliably.
	pause := p.Machine().Config().Costs.Pause
	p.LockEvent(sim.TraceSpinStart, l.lid)
	if p.SpinOnMax(func() bool { return l.v.V() != 0 }, posixSpin*pause, l.v) {
		if p.CAS(l.v, 0, 1) == 0 {
			p.LockEvent(sim.TraceAcquire, l.lid)
			return
		}
	}
	// Futex path.
	for p.Xchg(l.v, 2) != 0 {
		p.LockEvent(sim.TraceLockBlock, l.lid)
		p.FutexWait(l.v, 2)
	}
	p.LockEvent(sim.TraceAcquire, l.lid)
}

// Unlock implements Lock.
func (l *Posix) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.lid)
	if p.Xchg(l.v, 0) == 2 {
		if p.FutexWake(l.v, 1) > 0 {
			p.LockEvent(sim.TraceLockWake, l.lid)
		}
	}
}

// Backoff is the blocking-backoff lock of §2.2 (Anderson): no
// busy-waiting; on failure the thread sleeps for an exponentially growing,
// jittered timeout and retries.
type Backoff struct {
	v   *sim.Word
	lid int32
}

// NewBackoff returns a blocking-backoff lock.
func NewBackoff(m *sim.Machine, name string) *Backoff {
	lid := m.RegisterLockName(name)
	return &Backoff{v: m.NewLockWord(lid, ".bo", 0), lid: lid}
}

// Lock implements Lock.
func (l *Backoff) Lock(p *sim.Proc) {
	delay := sim.Time(1_000)
	const maxDelay = sim.Time(200_000)
	for p.CAS(l.v, 0, 1) != 0 {
		jitter := sim.Time(p.Rand().Int63n(int64(delay)))
		p.LockEvent(sim.TraceLockBlock, l.lid)
		p.Sleep(delay + jitter)
		if delay < maxDelay {
			delay *= 2
		}
	}
	p.LockEvent(sim.TraceAcquire, l.lid)
}

// Unlock implements Lock.
func (l *Backoff) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.lid)
	p.Store(l.v, 0)
}
