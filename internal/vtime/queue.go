// Package vtime provides the virtual-time primitives used by the
// discrete-event simulator: a tick-based clock type and a deterministic
// event queue.
//
// Events are ordered by (time, sequence). The sequence number is assigned
// at scheduling time, so two events scheduled for the same tick always fire
// in scheduling order, which makes entire simulation runs reproducible for
// a given seed. The queue holds live events only, in two tiers: a timing
// wheel for near-term events and a heap for the rest. Cancel removes an
// event from its tier at once, and Pop takes the smaller head of the two,
// so the pop order — the total order on (time, sequence) over live
// events — does not depend on when cancellations happened, on which tier
// holds an event, or on either tier's shape.
package vtime

import "math/bits"

// Time is a point in virtual time, measured in ticks. One tick is
// calibrated to roughly one CPU cycle by the simulator's cost tables.
type Time = int64

// Event is a scheduled callback. Events are single-shot: once fired or
// canceled they are inert. The zero Event is not usable; obtain events
// from Queue.Schedule.
type Event struct {
	At  Time
	seq uint64
	// index is the event's heap slot, inWheel while it sits in a wheel
	// bucket, and -1 once popped, canceled or recycled.
	index    int
	canceled bool
	pooled   bool
	// weak marks a passive instrumentation event (ScheduleWeak): it
	// fires like any other event but does not count toward StrongLen,
	// so the simulator can tell "work remains" from "only telemetry
	// remains".
	weak bool
	q    *Queue // owner, for Cancel's removal
	// next and prev link a wheel bucket's list: next is nil at the tail,
	// and the head's prev is the tail.
	next, prev *Event
	Fn         func()
}

// inWheel is Event.index for an event linked into a wheel bucket.
const inWheel = -2

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

// The wheel's geometry. Its window must cover every near-term delay the
// machine schedules under DefaultCosts: op completions (LoadRemote 40 to
// AtomicRemote 60, plus up to Jitter 16), a context switch (CtxSwitch
// 3000), a futex wake (Syscall+FutexWakeWork 3000, then WakeLatency
// 2000) and compute legs up to the background spinners' 10 000 ticks.
// 256 buckets of 64 ticks give a window of (256-1) × 64 = 16 320 ticks:
// all of those fit, and the MinSlice and Timeslice timers (100K and 1M)
// stay in the heap. The bucket array is 2 KB of pointers in every
// Machine; a 1024-bucket wheel made a small cell's setup measurably
// dearer.
const (
	bucketShift = 6 // 64-tick buckets
	numBuckets  = 256
	bucketMask  = numBuckets - 1
	// windowBuckets is the wheel's span: one bucket short of the ring, so
	// the slot just before the base's stays empty and no bucket can hold
	// events from two laps.
	windowBuckets = numBuckets - 1
)

// Queue is a deterministic two-tier priority queue of events. The zero
// value is an empty queue ready for use. Queue is not safe for concurrent
// use; the simulator drives it from a single goroutine.
//
// The simulator's event mix is dominated by short-lived near-term events
// (op completions tens of ticks ahead, context switches and wakes a few
// thousand ahead) threaded between a few long-lived timers (slice
// expiries 100K–1M ahead, sleeps, telemetry windows, traffic arrivals).
// Near-term events go to a timing wheel: fixed-width buckets covering a
// window that starts at the bucket of the last popped event, one list per
// bucket sorted by (time, sequence), and a bitmap of non-empty buckets.
// Everything else — past the window, or before its start — goes to the
// heap, so a near-term push or pop never sifts past the parked timers.
// Each tier is exact on its own, and Pop compares the two heads, so the
// pop order is the heap-only order exactly.
//
// Every entry in either tier is live: Cancel unlinks a wheel event, or
// sifts a heap entry out through the index the event tracks, so the head
// is always the next event to fire and neither tier grows with dead
// slice timers waiting to reach it.
//
// The heap is 4-ary: a 4-ary layout halves the sift depth of a binary
// heap, keeps the four children of a node on one cache line, and pays for
// the extra comparisons only on the rare deep sift. Sift paths are
// hole-based (one write per level instead of a swap's three).
type Queue struct {
	heap []entry
	seq  uint64
	// strong counts the non-weak pending events. When it reaches zero
	// only telemetry remains; the simulator treats that as a drained
	// queue.
	strong int
	// free is the event free-list: fired events recycled by Recycle and
	// canceled events returned by Cancel, reused by Schedule, cutting the
	// per-step allocation on the simulator's hot path to zero once warm.
	free []*Event

	// The wheel. Buckets are numbered by absolute time (at >>
	// bucketShift); wheel[b&bucketMask] heads bucket b's list and bitmap
	// marks the non-empty ones. base is the bucket of the last popped
	// event: only Pop moves it, and only forward. An event scheduled into
	// buckets [base, base+windowBuckets) joins the wheel, any other the
	// heap. first caches the earliest non-empty bucket while nwheel > 0,
	// so PeekTime reads the wheel's head without scanning the bitmap.
	wheel  [numBuckets]*Event
	bitmap [numBuckets / 64]uint64
	base   int64
	first  int64
	nwheel int
}

// arity is the heap fan-out. Child i*arity+1 .. i*arity+arity, parent
// (i-1)/arity.
const arity = 4

// maxFree bounds the free-list so a transient event burst does not pin
// memory for the rest of the run.
const maxFree = 1024

// Len returns the number of pending events, weak ones included. Canceled
// events have already left the queue, so the count is exact.
func (q *Queue) Len() int { return q.nwheel + len(q.heap) }

// StrongLen returns the number of pending non-weak events: work that
// should keep a simulation running. Weak (instrumentation) events do
// not count.
func (q *Queue) StrongLen() int { return q.strong }

// Tiers reports how the pending events split between the wheel and the
// heap, and whether the next Pop takes the heap's head. It only reads the
// queue; tests pin the routing through it.
func (q *Queue) Tiers() (wheel, heap int, heapNext bool) {
	return q.nwheel, len(q.heap), len(q.heap) > 0 && !q.wheelNext()
}

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
	if b := at >> bucketShift; uint64(b-q.base) < windowBuckets {
		q.link(e, b)
	} else {
		q.push(e)
	}
	return e
}

// Recycle returns a fired event to the free-list for reuse by Schedule.
// The caller must guarantee no reference to e survives the call: a
// recycled event may be handed out again as a logically different event,
// so a stale Cancel through an old pointer would cancel the wrong one.
// The simulator upholds this by nulling its event handles when a
// callback fires or is canceled (Cancel recycles by itself). Recycling
// an event still queued, already pooled, or nil is a no-op.
func (q *Queue) Recycle(e *Event) {
	if e == nil || e.index != -1 || e.pooled || len(q.free) >= maxFree {
		return
	}
	e.Fn = nil
	e.pooled = true
	q.free = append(q.free, e) //flexlint:allow hotalloc free list capped at maxFree; capacity is reused
}

// PeekTime returns the firing time of the earliest event. ok is false if
// the queue is empty.
func (q *Queue) PeekTime() (t Time, ok bool) {
	if q.nwheel > 0 {
		t = q.wheel[q.first&bucketMask].At
		if len(q.heap) > 0 && q.heap[0].at < t {
			t = q.heap[0].at
		}
		return t, true
	}
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty.
func (q *Queue) Pop() *Event {
	var e *Event
	switch {
	case q.wheelNext():
		e = q.wheel[q.first&bucketMask]
		q.unlink(e)
	case len(q.heap) > 0:
		e = q.pop()
	default:
		return nil
	}
	// Every pending event fires at or after e, so moving the base to e's
	// bucket leaves each wheel event inside the window.
	if b := e.At >> bucketShift; b > q.base {
		q.base = b
	}
	if !e.weak {
		q.strong--
	}
	return e
}

// wheelNext reports whether the earliest pending event is the wheel's
// head: the wheel holds one, and it fires before the heap's head.
func (q *Queue) wheelNext() bool {
	if q.nwheel == 0 {
		return false
	}
	if len(q.heap) == 0 {
		return true
	}
	h := q.wheel[q.first&bucketMask]
	return entry{at: h.At, seq: h.seq}.before(q.heap[0])
}

// remove takes the pending event e out of its tier and recycles it.
func (q *Queue) remove(e *Event) {
	if !e.weak {
		q.strong--
	}
	if e.index == inWheel {
		q.unlink(e)
	} else {
		q.removeHeap(e)
	}
	q.Recycle(e)
}

// link inserts e into bucket b's list. e holds the largest sequence
// number yet, so it sorts after every entry at or before its time. The
// walk for the last such entry starts at whichever end of the list is
// nearer e's time: the tail for the usual in-order arrival, so an
// equal-time burst appends in O(1), and the head for an event that lands
// early in a crowded bucket.
func (q *Queue) link(e *Event, b int64) {
	s := b & bucketMask
	e.index = inWheel
	q.nwheel++
	h := q.wheel[s]
	if h == nil {
		q.wheel[s] = e
		e.prev = e
		q.bitmap[s>>6] |= 1 << (s & 63)
		if q.nwheel == 1 || b < q.first {
			q.first = b
		}
		return
	}
	var t *Event // the last entry at or before e's time; nil if none
	if tail := h.prev; tail.At-e.At <= e.At-h.At {
		// e is no nearer the head than the tail, so h.At <= e.At and the
		// walk stops at h at the latest.
		for t = tail; t.At > e.At; t = t.prev {
		}
	} else if h.At <= e.At {
		for t = h; t.next != nil && t.next.At <= e.At; t = t.next {
		}
	}
	if t == nil {
		// e fires before the whole list and becomes its head.
		e.next, e.prev = h, h.prev
		h.prev = e
		q.wheel[s] = e
		return
	}
	e.prev, e.next = t, t.next
	if t.next != nil {
		t.next.prev = e
	} else {
		h.prev = e
	}
	t.next = e
}

// unlink takes the wheel event e out of its bucket. Emptying the first
// bucket moves first to the next non-empty one.
func (q *Queue) unlink(e *Event) {
	b := e.At >> bucketShift
	s := b & bucketMask
	switch h := q.wheel[s]; {
	case e != h:
		e.prev.next = e.next
		if e.next != nil {
			e.next.prev = e.prev
		} else {
			h.prev = e.prev
		}
	case e.next != nil:
		e.next.prev = e.prev
		q.wheel[s] = e.next
	default:
		q.wheel[s] = nil
		q.bitmap[s>>6] &^= 1 << (s & 63)
		if b == q.first && q.nwheel > 1 {
			q.first = q.nextBucket(b + 1)
		}
	}
	q.nwheel--
	e.next, e.prev = nil, nil
	e.index = -1
}

// nextBucket returns the earliest non-empty bucket at or after b. The
// wheel must hold an event, and every wheel event must lie in buckets
// [b, base+windowBuckets): that span is shorter than the ring, so the
// first set bit on a circular scan from b's slot is the earliest.
func (q *Queue) nextBucket(b int64) int64 {
	s := int(b & bucketMask)
	w := s >> 6
	word := q.bitmap[w] &^ (1<<(s&63) - 1)
	for word == 0 {
		w = (w + 1) % len(q.bitmap)
		word = q.bitmap[w]
	}
	slot := w<<6 | bits.TrailingZeros64(word)
	return b + int64((slot-s)&bucketMask)
}

// removeHeap takes the heap entry of e out of the heap. The last entry
// fills e's slot and is sifted toward whichever side restores the heap
// order: up if it fires before e's parent, down otherwise.
func (q *Queue) removeHeap(e *Event) {
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
}

// push appends e to the heap and sifts it up into place.
func (q *Queue) push(e *Event) {
	q.heap = append(q.heap, entry{}) //flexlint:allow hotalloc heap spine; amortized, capacity is reused across phases
	q.siftUp(len(q.heap)-1, entry{at: e.At, seq: e.seq, ev: e})
}

// pop removes the heap's root and sifts the last entry down from the
// root.
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
