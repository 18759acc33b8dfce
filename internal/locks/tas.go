package locks

import "repro/internal/sim"

// TAS is the test-and-set spinlock: hammer an atomic exchange until it
// reads unlocked. Inefficient under contention due to constant atomic
// traffic on one line (§2.1.2).
type TAS struct {
	v   *sim.Word
	lid int32
}

// NewTAS returns a TAS lock.
func NewTAS(m *sim.Machine, name string) *TAS {
	lid := m.RegisterLockName(name)
	return &TAS{v: m.NewLockWord(lid, ".tas", 0), lid: lid}
}

// Lock implements Lock.
func (l *TAS) Lock(p *sim.Proc) {
	spun := false
	for p.Xchg(l.v, 1) != 0 {
		if !spun {
			spun = true
			p.LockEvent(sim.TraceSpinStart, l.lid)
		}
		p.Pause()
	}
	p.LockEvent(sim.TraceAcquire, l.lid)
}

// Unlock implements Lock.
func (l *TAS) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.lid)
	p.Store(l.v, 0)
}

// TATAS is the test-and-test-and-set spinlock: busy-wait with plain loads
// and only attempt the atomic when the lock looks free, sparing the
// coherence fabric (§2.1.2).
type TATAS struct {
	v   *sim.Word
	lid int32
}

// NewTATAS returns a TATAS lock.
func NewTATAS(m *sim.Machine, name string) *TATAS {
	lid := m.RegisterLockName(name)
	return &TATAS{v: m.NewLockWord(lid, ".tatas", 0), lid: lid}
}

// Lock implements Lock.
func (l *TATAS) Lock(p *sim.Proc) {
	for {
		if p.Load(l.v) == 0 && p.Xchg(l.v, 1) == 0 {
			p.LockEvent(sim.TraceAcquire, l.lid)
			return
		}
		p.LockEvent(sim.TraceSpinStart, l.lid)
		p.SpinOn(func() bool { return l.v.V() != 0 }, l.v)
	}
}

// Unlock implements Lock.
func (l *TATAS) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.lid)
	p.Store(l.v, 0)
}

// Ticket is the FIFO ticket spinlock: take a ticket, spin on the
// now-serving counter with plain loads (§2.1.2).
type Ticket struct {
	next  *sim.Word
	owner *sim.Word
	lid   int32
}

// NewTicket returns a Ticket lock.
func NewTicket(m *sim.Machine, name string) *Ticket {
	lid := m.RegisterLockName(name)
	return &Ticket{
		next:  m.NewLockWord(lid, ".next", 0),
		owner: m.NewLockWord(lid, ".owner", 0),
		lid:   lid,
	}
}

// Lock implements Lock.
func (l *Ticket) Lock(p *sim.Proc) {
	my := p.Add(l.next, 1) - 1
	if p.Load(l.owner) == my {
		p.LockEvent(sim.TraceAcquire, l.lid)
		return
	}
	p.LockEvent(sim.TraceSpinStart, l.lid)
	p.SpinOn(func() bool { return l.owner.V() != my }, l.owner)
	p.LockEvent(sim.TraceAcquire, l.lid)
}

// Unlock implements Lock.
func (l *Ticket) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.lid)
	p.Add(l.owner, 1)
}

// SpinExt is the "spinlock with timeslice extension" of §5.1: a TATAS
// spinlock whose holder sets the rseq-area flag so the scheduler extends
// its slice instead of preempting it mid-critical-section (§2.4).
type SpinExt struct {
	inner TATAS
}

// NewSpinExt returns a timeslice-extension TATAS lock.
func NewSpinExt(m *sim.Machine, name string) *SpinExt {
	lid := m.RegisterLockName(name)
	return &SpinExt{inner: TATAS{v: m.NewLockWord(lid, ".spinext", 0), lid: lid}}
}

// Lock implements Lock.
func (l *SpinExt) Lock(p *sim.Proc) {
	l.inner.Lock(p)
	p.SetExtendSlice(true)
}

// Unlock implements Lock.
func (l *SpinExt) Unlock(p *sim.Proc) {
	p.SetExtendSlice(false)
	l.inner.Unlock(p)
}
