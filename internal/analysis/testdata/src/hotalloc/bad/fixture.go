// Package fixture exercises the hotalloc pass: allocating constructs
// reachable from hot roots — here a //flexlint:hotpath opt-in, a
// structural lock implementation (Lock/Unlock methods on one receiver
// taking *sim.Proc), and observer callbacks (methods implementing the
// sim observer and injector interfaces).
package fixture

import (
	"fmt"

	"repro/internal/sim"
)

//flexlint:hotpath
func hotStep(p *sim.Proc, w *sim.Word) {
	buf := make([]uint64, 8)     // want "heap allocation on a hot path: make"
	buf = append(buf, p.Load(w)) // want "append on a hot path"
	_ = buf
	xs := []uint64{1, 2} // want "heap allocation on a hot path: slice literal"
	_ = xs
	helper(p, w)
}

// helper allocates two frames below the hot root — flagged with the
// root attributed.
func helper(p *sim.Proc, w *sim.Word) {
	msg := fmt.Sprintln("hot") // want "call to fmt.Sprintln on a hot path"
	_ = msg
	sink(p.Load(w)) // want "value boxed into interface argument"
}

func sink(vals ...any) {}

type node struct{ next *node }

type hotLock struct {
	w       *sim.Word
	waiters map[int]bool
	name    string
}

func (l *hotLock) Lock(p *sim.Proc) {
	for p.CAS(l.w, 0, 1) != 0 {
		p.Pause()
	}
	l.waiters[p.ID()] = true // want "map write on a hot path"
	go background(l)         // want "goroutine launch on a hot path"
}

func (l *hotLock) Unlock(p *sim.Proc) {
	n := &node{} // want "composite literal escapes via &"
	_ = n
	tag := "lock-" + l.name // want "string concatenation on a hot path"
	_ = tag
	p.StoreRel(l.w, 0)
}

// background is behind a go statement: the launch itself is flagged,
// the body is off the synchronous hot path.
func background(l *hotLock) {
	l.waiters = make(map[int]bool)
}

//flexlint:hotpath
func hotClosure(p *sim.Proc, w *sim.Word) {
	v := p.Load(w)
	f := func() uint64 { return v } // want "closure captures variables"
	p.Store(w, f())
}

// Observer callbacks are hot roots by structural match: the event loop
// calls them through sim interfaces on every event.
type lockObs struct {
	seen map[int32]int32
	log  []sim.TraceKind
}

func (o *lockObs) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	o.seen[tid] = arg           // want "map write on a hot path"
	o.log = append(o.log, kind) // want "append on a hot path"
}

// A value receiver implements the interface through both method sets.
type valueObs struct{}

func (valueObs) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	_ = fmt.Sprintln("observed") // want "call to fmt.Sprintln on a hot path"
}

type memObs struct{ last []int32 }

func (o *memObs) MemEvent(ev *sim.MemEvent) {
	o.last = []int32{ev.TID} // want "heap allocation on a hot path: slice literal"
}

// crashInj implements sim.FaultInjector and sim.CrashInjector.
type crashInj struct{ victims []*sim.Thread }

func (i *crashInj) SliceGrant(t *sim.Thread, slice sim.Time) sim.Time { return slice }
func (i *crashInj) PreemptAtBoundary(t *sim.Thread) bool              { return false }
func (i *crashInj) WakeDelay(t *sim.Thread, lat sim.Time) sim.Time    { return lat }
func (i *crashInj) SpuriousWakeDelay(t *sim.Thread) sim.Time          { return 0 }

func (i *crashInj) CrashAtBoundary(t *sim.Thread) bool {
	i.victims = append(i.victims, t) // want "append on a hot path"
	return false
}

func (i *crashInj) CrashParkedDelay(t *sim.Thread) sim.Time { return 0 }

func (i *crashInj) CrashParkedOutcome(t *sim.Thread, landed bool) {
	_ = new(bool) // want "heap allocation on a hot path: new"
}
