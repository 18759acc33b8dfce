// Package fixture exercises the traceprotocol pass: lock paths that
// emit zero, two, conditional, repeated, or unclassifiable trace
// events. Every type here pairs Lock with a clean Unlock (or vice
// versa) so the structural root detection fires.
package fixture

import "repro/internal/sim"

// missed emits nothing on the contended path.
type missed struct{ w *sim.Word }

func (l *missed) Lock(p *sim.Proc) {
	if p.CAS(l.w, 0, 1) == 0 {
		p.LockEvent(sim.TraceAcquire, l.w.ID())
		return
	}
	p.SpinOn(func() bool { return l.w.V() == 0 }, l.w)
} // want "emits 0 acquire-class trace events"

func (l *missed) Unlock(p *sim.Proc) {
	p.StoreRel(l.w, 0)
	p.LockEvent(sim.TraceRelease, l.w.ID())
}

// double emits the release event twice.
type double struct{ w *sim.Word }

func (l *double) Lock(p *sim.Proc) {
	p.SpinOn(func() bool { return l.w.V() == 0 }, l.w)
	p.Store(l.w, 1)
	p.LockEvent(sim.TraceAcquire, l.w.ID())
}

func (l *double) Unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.w.ID())
	p.StoreRel(l.w, 0)
	p.LockEvent(sim.TraceRelease, l.w.ID())
} // want "emits 2 release-class trace events"

// retry emits inside its spin loop: one more event per retry.
type retry struct{ w *sim.Word }

func (l *retry) Lock(p *sim.Proc) {
	for p.CAS(l.w, 0, 1) != 0 {
		p.LockEvent(sim.TraceAcquire, l.w.ID())
	} // want "acquire-class trace event may be emitted on this loop's back edge"
	p.LockEvent(sim.TraceAcquire, l.w.ID())
}

func (l *retry) Unlock(p *sim.Proc) {
	p.StoreRel(l.w, 0)
	p.LockEvent(sim.TraceRelease, l.w.ID())
}

// conditional may or may not emit — between 0 and 1.
type conditional struct{ w *sim.Word }

func (l *conditional) Lock(p *sim.Proc) {
	got := p.Xchg(l.w, 1)
	if got == 0 {
		p.LockEvent(sim.TraceAcquire, l.w.ID())
	}
} // want "emits between 0 and 1 acquire-class trace events"

func (l *conditional) Unlock(p *sim.Proc) {
	p.StoreRel(l.w, 0)
	p.LockEvent(sim.TraceRelease, l.w.ID())
}

// varkind passes a non-constant trace kind — unclassifiable.
type varkind struct{ w *sim.Word }

func (l *varkind) Lock(p *sim.Proc) {
	kind := sim.TraceAcquire
	p.Store(l.w, 1)
	p.LockEvent(kind, l.w.ID()) // want "trace kind passed to LockEvent is not a constant"
} // want "emits 0 acquire-class trace events"

func (l *varkind) Unlock(p *sim.Proc) {
	p.StoreRel(l.w, 0)
	p.LockEvent(sim.TraceRelease, l.w.ID())
}

// helped composes its helper's emission with its own — two total.
type helped struct{ w *sim.Word }

func (l *helped) acquireTrace(p *sim.Proc) {
	p.LockEvent(sim.TraceAcquire, l.w.ID())
}

func (l *helped) Lock(p *sim.Proc) {
	p.SpinOn(func() bool { return l.w.V() == 0 }, l.w)
	p.Store(l.w, 1)
	l.acquireTrace(p)
	p.LockEvent(sim.TraceAcquire, l.w.ID())
} // want "emits 2 acquire-class trace events"

func (l *helped) Unlock(p *sim.Proc) {
	p.StoreRel(l.w, 0)
	p.LockEvent(sim.TraceRelease, l.w.ID())
}

// cased emits from a call in a case expression as well as after the
// switch — two total, whichever clause runs.
type cased struct{ w *sim.Word }

func (l *cased) acquired(p *sim.Proc) bool {
	p.LockEvent(sim.TraceAcquire, l.w.ID())
	return true
}

func (l *cased) Lock(p *sim.Proc) {
	p.SpinOn(func() bool { return l.w.V() == 0 }, l.w)
	p.Store(l.w, 1)
	switch {
	case l.acquired(p):
	}
	p.LockEvent(sim.TraceAcquire, l.w.ID())
} // want "emits 2 acquire-class trace events"

func (l *cased) Unlock(p *sim.Proc) {
	p.StoreRel(l.w, 0)
	p.LockEvent(sim.TraceRelease, l.w.ID())
}
