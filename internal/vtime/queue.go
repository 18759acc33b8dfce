// Package vtime provides the virtual-time primitives used by the
// discrete-event simulator: a tick-based clock type and a deterministic
// event queue.
//
// Events are ordered by (time, sequence). The sequence number is assigned
// at scheduling time, so two events scheduled for the same tick always fire
// in scheduling order, which makes entire simulation runs reproducible for
// a given seed. The queue holds live events only: Cancel removes an event
// from the heap at once, so the pop order — the total order on (time,
// sequence) over live events — does not depend on when cancellations
// happened or on the heap's shape.
package vtime

// Time is a point in virtual time, measured in ticks. One tick is
// calibrated to roughly one CPU cycle by the simulator's cost tables.
type Time = int64

// Event is a scheduled callback. Events are single-shot: once fired or
// canceled they are inert. The zero Event is not usable; obtain events
// from Queue.Schedule.
type Event struct {
	At       Time
	seq      uint64
	index    int // heap index, -1 once popped, canceled or recycled
	canceled bool
	pooled   bool
	// weak marks a passive instrumentation event (ScheduleWeak): it
	// fires like any other event but does not count toward StrongLen,
	// so the simulator can tell "work remains" from "only telemetry
	// remains".
	weak bool
	q    *Queue // owner, for Cancel's removal
	Fn   func()
}

// Cancel removes a pending event from its queue so that it never fires,
// and returns it to the queue's free list for reuse by the next
// Schedule. The caller must drop every reference to e at the call, the
// same rule as Recycle: a later Cancel through a stale handle could
// cancel the unrelated event that now reuses it. Canceling nil, an
// already canceled event, or one that has already fired (or is firing)
// is a no-op apart from marking it canceled.
func (e *Event) Cancel() {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.index != -1 {
		e.q.remove(e)
	}
}

// Canceled reports whether Cancel has been called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// entry is a heap slot: the ordering key (time, sequence) stored inline
// next to the event pointer. Sift comparisons — the hot path of every
// push and pop — read keys straight from the contiguous heap slice
// instead of chasing each Event pointer to a separate heap object.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// before reports whether a fires before b: earlier time, or scheduling
// order on ties.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Queue is a deterministic min-heap of events. The zero value is an empty
// queue ready for use. Queue is not safe for concurrent use; the simulator
// drives it from a single goroutine.
//
// Every heap entry is live: Cancel sifts the canceled entry out through
// the index the event tracks, so the head is always the next event to
// fire and the heap never grows with dead slice timers waiting to reach
// it.
//
// The heap is 4-ary: the simulator's event mix after spin coalescing and
// instruction batching is dominated by short-lived near-term events
// (instruction completions, spin-exit checks) threaded between a few
// long-lived timers (slice expiries, futex timeouts), so the queue stays
// shallow and wide. A 4-ary layout halves the sift depth of a binary
// heap, keeps the four children of a node on one cache line, and pays for
// the extra comparisons only on the rare deep sift. Sift paths are
// hole-based (one write per level instead of a swap's three).
type Queue struct {
	heap []entry
	seq  uint64
	// strong counts the non-weak events in the heap. When it reaches zero
	// only telemetry remains; the simulator treats that as a drained
	// queue.
	strong int
	// free is the event free-list: fired events recycled by Recycle and
	// canceled events returned by Cancel, reused by Schedule, cutting the
	// per-step allocation on the simulator's hot path to zero once warm.
	free []*Event
}

// arity is the heap fan-out. Child i*arity+1 .. i*arity+arity, parent
// (i-1)/arity.
const arity = 4

// maxFree bounds the free-list so a transient event burst does not pin
// memory for the rest of the run.
const maxFree = 1024

// Len returns the number of pending events, weak ones included. Canceled
// events have already left the queue, so the count is exact.
func (q *Queue) Len() int { return len(q.heap) }

// StrongLen returns the number of pending non-weak events: work that
// should keep a simulation running. Weak (instrumentation) events do
// not count.
func (q *Queue) StrongLen() int { return q.strong }

// Schedule adds fn to run at time at and returns a handle that can be used
// to cancel it. Scheduling in the past is permitted (the simulator guards
// against it separately); such events fire before any later ones.
func (q *Queue) Schedule(at Time, fn func()) *Event {
	q.strong++
	return q.schedule(at, fn, false)
}

// ScheduleWeak is Schedule for passive instrumentation: the event fires
// normally (and bounds PeekTime-based fast-forwarding like any other),
// but does not count toward StrongLen, so it never makes the queue look
// like it still has work.
func (q *Queue) ScheduleWeak(at Time, fn func()) *Event {
	return q.schedule(at, fn, true)
}

func (q *Queue) schedule(at Time, fn func(), weak bool) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		*e = Event{At: at, seq: q.seq, weak: weak, q: q, Fn: fn}
	} else {
		//flexlint:allow hotalloc allocates only while the free list is empty; steady state recycles
		e = &Event{At: at, seq: q.seq, weak: weak, q: q, Fn: fn}
	}
	q.seq++
	q.push(e)
	return e
}

// Recycle returns a fired event to the free-list for reuse by Schedule.
// The caller must guarantee no reference to e survives the call: a
// recycled event may be handed out again as a logically different event,
// so a stale Cancel through an old pointer would cancel the wrong one.
// The simulator upholds this by nulling its event handles when a
// callback fires or is canceled (Cancel recycles by itself). Recycling
// an event still in the heap, already pooled, or nil is a no-op.
func (q *Queue) Recycle(e *Event) {
	if e == nil || e.index != -1 || e.pooled || len(q.free) >= maxFree {
		return
	}
	e.Fn = nil
	e.pooled = true
	q.free = append(q.free, e) //flexlint:allow hotalloc free list capped at maxFree; capacity is reused
}

// Reset discards every remaining event, returning them to the free
// list. The simulator calls it at a phase boundary (Machine.RunPhase),
// where the strong events have drained and whatever remains is weak
// (instrumentation) events that must not leak into the next phase.
func (q *Queue) Reset() {
	for len(q.heap) > 0 {
		q.Recycle(q.pop())
	}
	q.strong = 0
}

// PeekTime returns the firing time of the earliest event. ok is false if
// the queue is empty.
func (q *Queue) PeekTime() (t Time, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty.
func (q *Queue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	e := q.pop()
	if !e.weak {
		q.strong--
	}
	return e
}

// remove takes the pending event e out of the heap and recycles it. The
// last entry fills e's slot and is sifted toward whichever side restores
// the heap order: up if it fires before e's parent, down otherwise.
func (q *Queue) remove(e *Event) {
	if !e.weak {
		q.strong--
	}
	i := e.index
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap[n] = entry{}
	q.heap = q.heap[:n]
	if i < n {
		if i > 0 && last.before(q.heap[(i-1)/arity]) {
			q.siftUp(i, last)
		} else {
			q.siftDown(i, last)
		}
	}
	e.index = -1
	q.Recycle(e)
}

// push appends e and sifts it up into place.
func (q *Queue) push(e *Event) {
	q.heap = append(q.heap, entry{}) //flexlint:allow hotalloc heap spine; amortized, capacity is reused across phases
	q.siftUp(len(q.heap)-1, entry{at: e.At, seq: e.seq, ev: e})
}

// pop removes the root and sifts the last entry down from the root.
func (q *Queue) pop() *Event {
	top := q.heap[0].ev
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap[n] = entry{}
	q.heap = q.heap[:n]
	if n > 0 {
		q.siftDown(0, last)
	}
	top.index = -1
	return top
}

// siftUp places en into the hole at i, moving it toward the root: the
// displaced parents move down one level each and en is written once at
// its final slot.
func (q *Queue) siftUp(i int, en entry) {
	for i > 0 {
		p := (i - 1) / arity
		parent := q.heap[p]
		if !en.before(parent) {
			break
		}
		q.heap[i] = parent
		parent.ev.index = i
		i = p
	}
	q.heap[i] = en
	en.ev.index = i
}

// siftDown places en into the hole at i, moving it toward the leaves
// past the smallest of up to arity children per level.
func (q *Queue) siftDown(i int, en entry) {
	n := len(q.heap)
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		smallest := first
		end := min(first+arity, n)
		for c := first + 1; c < end; c++ {
			if q.heap[c].before(q.heap[smallest]) {
				smallest = c
			}
		}
		if !q.heap[smallest].before(en) {
			break
		}
		q.heap[i] = q.heap[smallest]
		q.heap[i].ev.index = i
		i = smallest
	}
	q.heap[i] = en
	en.ev.index = i
}
