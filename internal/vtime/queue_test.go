package vtime

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(30, func() { got = append(got, 30) })
	q.Schedule(10, func() { got = append(got, 10) })
	q.Schedule(20, func() { got = append(got, 20) })
	for e := q.Pop(); e != nil; e = q.Pop() {
		e.Fn()
	}
	want := []int{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestQueueStableTies(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 16; i++ {
		i := i
		q.Schedule(5, func() { got = append(got, i) })
	}
	for e := q.Pop(); e != nil; e = q.Pop() {
		e.Fn()
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestQueueCancel(t *testing.T) {
	var q Queue
	fired := false
	e := q.Schedule(1, func() { fired = true })
	e.Cancel()
	if !e.Canceled() {
		t.Fatal("Canceled() should report true after Cancel")
	}
	if got := q.Pop(); got != nil {
		t.Fatalf("expected no live events, got one at %d", got.At)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
	// Double cancel is a no-op.
	e.Cancel()
	// Cancel of nil is a no-op.
	var nilEv *Event
	nilEv.Cancel()
}

func TestQueueCancelMiddle(t *testing.T) {
	var q Queue
	var got []Time
	q.Schedule(1, func() { got = append(got, 1) })
	e2 := q.Schedule(2, func() { got = append(got, 2) })
	q.Schedule(3, func() { got = append(got, 3) })
	e2.Cancel()
	for e := q.Pop(); e != nil; e = q.Pop() {
		e.Fn()
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestQueuePeekTime(t *testing.T) {
	var q Queue
	if _, ok := q.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue should report !ok")
	}
	e := q.Schedule(7, func() {})
	q.Schedule(9, func() {})
	if at, ok := q.PeekTime(); !ok || at != 7 {
		t.Fatalf("PeekTime = %d,%v want 7,true", at, ok)
	}
	e.Cancel()
	if at, ok := q.PeekTime(); !ok || at != 9 {
		t.Fatalf("PeekTime after cancel = %d,%v want 9,true", at, ok)
	}
}

// Property: popping every event yields a sequence sorted by time, and for
// equal times sorted by scheduling order.
func TestQueueHeapProperty(t *testing.T) {
	check := func(times []uint8) bool {
		var q Queue
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, tt := range times {
			at := Time(tt % 16) // force many ties
			i := i
			q.Schedule(at, func() { got = append(got, rec{at, i}) })
		}
		for e := q.Pop(); e != nil; e = q.Pop() {
			e.Fn()
		}
		if len(got) != len(times) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].seq < got[j].seq
		})
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueInterleavedScheduleAndPop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue
	now := Time(0)
	live := 0
	for i := 0; i < 1000; i++ {
		if live == 0 || rng.Intn(2) == 0 {
			q.Schedule(now+Time(rng.Intn(100)), func() {})
			live++
		} else {
			e := q.Pop()
			if e == nil {
				t.Fatal("queue unexpectedly empty")
			}
			if e.At < now {
				t.Fatalf("time went backwards: %d < %d", e.At, now)
			}
			now = e.At
			live--
		}
	}
}

// Property: under a random interleaving of pushes and pops (with heavy
// time ties and occasional cancels), the popped sequence equals the
// reference order — all live events sorted by (time, scheduling order) —
// restricted to events scheduled before each pop.
func TestQueuePopOrderMatchesReferenceSort(t *testing.T) {
	type rec struct {
		at  Time
		seq int
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var handles []*Event
		var ref []rec  // live scheduled events, in scheduling order
		var got []rec  // pop order observed
		var want []rec // reference order computed incrementally
		now := Time(0)
		seq := 0
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(ref) == 0:
				// Schedule at or after the current time, with ties likely.
				at := now + Time(rng.Intn(4))
				rc := rec{at, seq}
				handles = append(handles, q.Schedule(at, func() {}))
				ref = append(ref, rc)
				seq++
			case r < 6 && len(handles) > 0:
				// Cancel a random not-yet-popped event (may already be
				// canceled or fired; both are no-ops).
				i := rng.Intn(len(handles))
				if h := handles[i]; h != nil {
					h.Cancel()
					// Remove from the reference if still pending.
					for j, rc := range ref {
						if rc.seq == i {
							ref = append(ref[:j], ref[j+1:]...)
							break
						}
					}
					handles[i] = nil
				}
			default:
				// Pop: must be the minimum (at, seq) of the live set.
				sort.Slice(ref, func(a, b int) bool {
					if ref[a].at != ref[b].at {
						return ref[a].at < ref[b].at
					}
					return ref[a].seq < ref[b].seq
				})
				e := q.Pop()
				if e == nil {
					t.Fatalf("seed %d: queue empty with %d reference events live", seed, len(ref))
				}
				got = append(got, rec{e.At, -1})
				want = append(want, ref[0])
				if e.At != ref[0].at {
					t.Fatalf("seed %d step %d: popped t=%d, reference t=%d", seed, step, e.At, ref[0].at)
				}
				if handles[ref[0].seq] == e {
					handles[ref[0].seq] = nil
				} else {
					t.Fatalf("seed %d step %d: popped a different event than the reference (tie broken out of scheduling order)", seed, step)
				}
				ref = ref[1:]
				now = e.At
			}
		}
		_ = got
		_ = want
	}
}

// The free list must never hand a live (still-heaped) event back to
// Schedule: recycling is only legal for popped events, and a pooled event
// must come back with fresh identity.
func TestQueueFreeListNeverResurrectsLiveEvent(t *testing.T) {
	var q Queue
	live := q.Schedule(10, func() {})
	// Recycling an event still in the heap must be refused.
	q.Recycle(live)
	reused := q.Schedule(5, func() {})
	if reused == live {
		t.Fatal("Schedule reused an event that was still in the heap")
	}
	if e := q.Pop(); e != reused {
		t.Fatalf("expected the t=5 event first, got t=%d", e.At)
	}
	if e := q.Pop(); e != live {
		t.Fatalf("live event lost after bogus Recycle; got %v", e)
	}
	// Legal recycle: the popped event may be reused, but only once — a
	// double Recycle must not produce two handles to one event.
	q.Recycle(live)
	q.Recycle(live) // no-op: already pooled
	a := q.Schedule(1, func() {})
	b := q.Schedule(2, func() {})
	if a != live {
		t.Fatal("expected Schedule to reuse the recycled event")
	}
	if b == a {
		t.Fatal("double Recycle produced two handles to the same event")
	}
	// A canceled event is recycled by Cancel itself; its old handle must
	// not affect the reused event.
	c := q.Schedule(3, func() {})
	c.Cancel()
	if e := q.Pop(); e != a {
		t.Fatalf("expected the t=1 event, got t=%d", e.At)
	}
	if e := q.Pop(); e != b {
		t.Fatalf("expected the t=2 event, got t=%d", e.At)
	}
	if e := q.Pop(); e != nil {
		t.Fatalf("expected empty queue, got event at t=%d", e.At)
	}
	d := q.Schedule(4, func() {})
	if d.Canceled() {
		t.Fatal("recycled event inherited the canceled flag of its previous life")
	}
	if e := q.Pop(); e != d {
		t.Fatal("reused event did not pop")
	}
}

// TestStrongLenWeakEvents: StrongLen counts only live non-weak events —
// the signal the simulator uses to tell pending work from telemetry.
func TestStrongLenWeakEvents(t *testing.T) {
	var q Queue
	if q.StrongLen() != 0 {
		t.Fatalf("empty queue StrongLen = %d", q.StrongLen())
	}
	var fired []int
	q.ScheduleWeak(5, func() { fired = append(fired, 5) })
	q.Schedule(10, func() { fired = append(fired, 10) })
	if q.StrongLen() != 1 || q.Len() != 2 {
		t.Fatalf("StrongLen = %d, Len = %d; want 1, 2", q.StrongLen(), q.Len())
	}
	// Weak events still fire in time order like any other.
	q.Pop().Fn()
	if q.StrongLen() != 1 {
		t.Fatalf("popping weak event changed StrongLen to %d", q.StrongLen())
	}
	q.Pop().Fn()
	if q.StrongLen() != 0 || q.Len() != 0 {
		t.Fatalf("after draining: StrongLen = %d, Len = %d", q.StrongLen(), q.Len())
	}
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("fired order %v, want [5 10]", fired)
	}
}

// TestStrongLenCancel: canceling a live strong event releases its count
// immediately (not lazily at removal); double-cancel and cancel-after-
// fire do not double-release.
func TestStrongLenCancel(t *testing.T) {
	var q Queue
	a := q.Schedule(1, func() {})
	b := q.Schedule(2, func() {})
	a.Cancel()
	if q.StrongLen() != 1 {
		t.Fatalf("after cancel: StrongLen = %d, want 1", q.StrongLen())
	}
	a.Cancel()
	if q.StrongLen() != 1 {
		t.Fatalf("double cancel decremented twice: StrongLen = %d", q.StrongLen())
	}
	if e := q.Pop(); e != b {
		t.Fatal("Pop skipped the live event")
	}
	b.Cancel() // after fire: must not go negative
	if q.StrongLen() != 0 {
		t.Fatalf("cancel after fire changed StrongLen to %d", q.StrongLen())
	}
	// The free-list must not leak weakness between lives.
	q.Recycle(b)
	c := q.Schedule(3, func() {})
	if q.StrongLen() != 1 {
		t.Fatalf("recycled event miscounted: StrongLen = %d", q.StrongLen())
	}
	c.Cancel()
	if q.StrongLen() != 0 {
		t.Fatalf("StrongLen = %d after canceling reused event", q.StrongLen())
	}
}

// TestQueueRouting pins which tier an event joins: the wheel takes the
// buckets [base, base+windowBuckets) and the heap everything else, and
// only a pop moves base, forward, to the popped event's bucket.
func TestQueueRouting(t *testing.T) {
	const edge = windowBuckets << bucketShift // the zero queue's window end
	var q Queue
	tiers := func(wantWheel, wantHeap int, wantHeapNext bool) {
		t.Helper()
		if w, h, hn := q.Tiers(); w != wantWheel || h != wantHeap || hn != wantHeapNext {
			t.Fatalf("Tiers = %d, %d, %v; want %d, %d, %v", w, h, hn, wantWheel, wantHeap, wantHeapNext)
		}
	}
	tiers(0, 0, false)
	q.Schedule(edge-1, func() {}) // the window's last tick
	q.Schedule(0, func() {})      // the window's first tick
	q.Schedule(edge, func() {})   // one past the window
	q.Schedule(-1, func() {})     // before the base
	tiers(2, 2, true)
	if e := q.Pop(); e.At != -1 {
		t.Fatalf("popped %d, want -1", e.At)
	}
	if e := q.Pop(); e.At != 0 || q.base != 0 {
		t.Fatalf("popped %d with base %d, want 0 and 0", e.At, q.base)
	}
	q.PeekTime() // peeking never moves the base
	if e := q.Pop(); e.At != edge-1 || q.base != windowBuckets-1 {
		t.Fatalf("popped %d with base %d, want %d and %d", e.At, q.base, edge-1, windowBuckets-1)
	}
	// The window now starts at edge-1's bucket; edge stays in the heap.
	q.Schedule(edge+1, func() {})
	tiers(1, 1, true)
	if e := q.Pop(); e.At != edge {
		t.Fatalf("popped %d, want %d", e.At, edge)
	}
	tiers(1, 0, false)
}

func BenchmarkQueueScheduleAndPop(b *testing.B) {
	var q Queue
	for i := 0; i < b.N; i++ {
		q.Schedule(Time(i%128), func() {})
		if q.Len() > 64 {
			q.Pop()
		}
	}
}

// BenchmarkQueueSweepMix runs the queue in the figure sweep's measured
// steady state: 14 near-term events, with delays drawn from the default
// cost table (72% op completions 40–60 ticks ahead plus jitter, the rest
// context switches, futex wakes and compute legs), threaded between 17
// slice timers 100K–1M ticks ahead. Each iteration pops the earliest
// event and schedules its successor — a near event after a near one, a
// fresh slice timer after an expired one — and every 64th also cancels a
// slice timer and rearms it, as a context switch does.
func BenchmarkQueueSweepMix(b *testing.B) {
	const (
		nearEvents  = 14
		sliceTimers = 17
		draws       = 4096 // precomputed delays, cycled
	)
	rng := rand.New(rand.NewSource(1))
	near := make([]Time, draws)
	for i := range near {
		switch r := rng.Intn(100); {
		case r < 72: // LoadRemote, StoreRemote or AtomicRemote, plus Jitter
			near[i] = []Time{40, 50, 60}[r%3] + Time(rng.Intn(17))
		case r < 86: // CtxSwitch, or Syscall+FutexWakeWork
			near[i] = 3000
		case r < 92: // WakeLatency
			near[i] = 2000
		default: // a compute leg, up to the spinners' 10 000
			near[i] = 1 + Time(rng.Intn(10_000))
		}
	}
	far := make([]Time, draws)
	for i := range far {
		far[i] = 100_000 + Time(rng.Intn(900_000))
	}
	var q Queue
	fired := -1 // the slice timer the last callback was, -1 for a near event
	timers := make([]*Event, sliceTimers)
	timerFns := make([]func(), sliceTimers)
	for i := range timers {
		timerFns[i] = func() { fired = i }
		timers[i] = q.Schedule(far[i], timerFns[i])
	}
	nearFn := func() { fired = -1 }
	for i := range nearEvents {
		q.Schedule(near[i], nearFn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.Pop()
		now := e.At
		e.Fn()
		q.Recycle(e)
		d := i & (draws - 1)
		if fired < 0 {
			q.Schedule(now+near[d], nearFn)
		} else {
			timers[fired] = q.Schedule(now+far[d], timerFns[fired])
		}
		if i%64 == 0 {
			k := d % sliceTimers
			timers[k].Cancel()
			timers[k] = q.Schedule(now+far[d^1], timerFns[k])
		}
	}
}

// checkQueue verifies the queue's whole state against the reference list
// of pending events. In the wheel, every event sits in its time's bucket
// inside [base, base+windowBuckets), each bucket's list is sorted by
// (time, sequence) with consistent links, the bitmap marks exactly the
// non-empty buckets, and first names the earliest one. In the heap, the
// 4-ary order holds, with every tracked index and the keys stored next to
// each event. In both, no entry is canceled or pooled, each is pending in
// the reference, and Len and StrongLen are exact.
func checkQueue(t *testing.T, q *Queue, pending []*Event, where string) {
	t.Helper()
	strong := 0
	for _, e := range pending {
		if !e.weak {
			strong++
		}
	}
	if q.Len() != len(pending) || q.StrongLen() != strong {
		t.Fatalf("%s: Len %d StrongLen %d, reference %d / %d", where, q.Len(), q.StrongLen(), len(pending), strong)
	}
	live := func(e *Event, tier string) {
		t.Helper()
		switch {
		case e.canceled || e.pooled:
			t.Fatalf("%s: %s event at %d is canceled or pooled", where, tier, e.At)
		case e.q != q:
			t.Fatalf("%s: %s event at %d belongs to another queue", where, tier, e.At)
		case !slices.Contains(pending, e):
			t.Fatalf("%s: %s event at %d is not pending in the reference", where, tier, e.At)
		}
	}
	nwheel, earliest := 0, int64(0)
	for s, h := range q.wheel {
		if marked := q.bitmap[s>>6]&(1<<(s&63)) != 0; marked != (h != nil) {
			t.Fatalf("%s: slot %d: bitmap bit %v, list empty %v", where, s, marked, h == nil)
		}
		if h == nil {
			continue
		}
		var prev *Event
		for e := h; e != nil; prev, e = e, e.next {
			b := e.At >> bucketShift
			switch {
			case e.index != inWheel:
				t.Fatalf("%s: slot %d: event at %d tracks index %d", where, s, e.At, e.index)
			case int(b&bucketMask) != s:
				t.Fatalf("%s: slot %d holds an event at %d, of bucket %d", where, s, e.At, b)
			case b < q.base || b >= q.base+windowBuckets:
				t.Fatalf("%s: wheel event at %d (bucket %d) outside the window [%d, %d)", where, e.At, b, q.base, q.base+windowBuckets)
			case prev != nil && e.prev != prev:
				t.Fatalf("%s: slot %d: event at %d has a stale prev link", where, s, e.At)
			case prev != nil && !(entry{at: prev.At, seq: prev.seq}).before(entry{at: e.At, seq: e.seq}):
				t.Fatalf("%s: slot %d: (%d,%d) listed before (%d,%d)", where, s, prev.At, prev.seq, e.At, e.seq)
			}
			live(e, "wheel")
			if nwheel == 0 || b < earliest {
				earliest = b
			}
			nwheel++
		}
		if h.prev != prev {
			t.Fatalf("%s: slot %d: the head's prev is not the tail", where, s)
		}
	}
	if nwheel != q.nwheel {
		t.Fatalf("%s: wheel lists hold %d events, nwheel %d", where, nwheel, q.nwheel)
	}
	if nwheel > 0 && q.first != earliest {
		t.Fatalf("%s: first %d, earliest non-empty bucket %d", where, q.first, earliest)
	}
	for i, en := range q.heap {
		switch {
		case en.ev.index != i:
			t.Fatalf("%s: entry %d tracks index %d", where, i, en.ev.index)
		case en.at != en.ev.At || en.seq != en.ev.seq:
			t.Fatalf("%s: entry %d key (%d,%d) != event (%d,%d)", where, i, en.at, en.seq, en.ev.At, en.ev.seq)
		case i > 0 && en.before(q.heap[(i-1)/arity]):
			t.Fatalf("%s: entry %d fires before its parent", where, i)
		}
		live(en.ev, "heap")
	}
}

// refQueue drives a Queue next to a naive reference: the pending events
// in scheduling order, whose head is the minimum time, the earliest
// scheduled on ties. Every step checks the queue's whole state.
type refQueue struct {
	t       *testing.T
	q       Queue
	pending []*Event // in scheduling order
	now     Time     // the last popped time
	where   string   // the step, for failure messages
}

// at returns a time of the given class, with n (0–255) choosing within
// it. The classes reach both tiers and every routing edge: near-term
// ticks with frequent ties, bucket edges ±1, either edge of the window
// ±1, slice timers ≥ 1M ticks ahead, the past, and anywhere up to just
// past the window.
func (r *refQueue) at(class, n int) Time {
	switch class % 6 {
	case 0:
		return r.now + Time(n%6)
	case 1:
		return (r.now>>bucketShift+Time(1+n%4))<<bucketShift + Time(n%3-1)
	case 2:
		edge := r.q.base
		if n%2 == 1 {
			edge += windowBuckets
		}
		return edge<<bucketShift + Time(n/2%3-1)
	case 3:
		return r.now + 1_000_000 + Time(n)
	case 4:
		return r.now - 1 - Time(n%100)
	default:
		return r.now + Time(n)*67
	}
}

// head returns the index of the reference's next event, or -1.
func (r *refQueue) head() int {
	best := -1
	for i, e := range r.pending {
		if best < 0 || e.At < r.pending[best].At {
			best = i
		}
	}
	return best
}

func (r *refQueue) check(op string) { checkQueue(r.t, &r.q, r.pending, r.where+" ("+op+")") }

func (r *refQueue) schedule(at Time, weak bool) *Event {
	r.t.Helper()
	var e *Event
	if weak {
		e = r.q.ScheduleWeak(at, func() {})
	} else {
		e = r.q.Schedule(at, func() {})
	}
	if slices.Contains(r.pending, e) || e.Canceled() || e.index == -1 {
		r.t.Fatalf("%s: Schedule returned a pending or stale event", r.where)
	}
	r.pending = append(r.pending, e)
	r.check("schedule")
	return e
}

// cancel cancels pending event i. Then, by follow: cancels it again (a
// no-op), lets the next Schedule, at reuse, take it from the free list,
// or does neither.
func (r *refQueue) cancel(i, follow int, reuse Time) {
	r.t.Helper()
	e := r.pending[i]
	free := len(r.q.free)
	e.Cancel()
	r.pending = slices.Delete(r.pending, i, i+1)
	if !e.Canceled() || e.index != -1 || len(r.q.free) != free+1 {
		r.t.Fatalf("%s: canceled event not removed and recycled", r.where)
	}
	r.check("cancel")
	switch follow % 3 {
	case 0:
		e.Cancel()
		if len(r.q.free) != free+1 {
			r.t.Fatalf("%s: double cancel recycled the event twice", r.where)
		}
		r.check("double cancel")
	case 1:
		if got := r.schedule(reuse, false); got != e {
			r.t.Fatalf("%s: Schedule did not reuse the canceled event", r.where)
		}
	}
}

// pop pops one event and checks it is the reference's head. With
// cancelAfter it then cancels the fired event, which changes nothing,
// before recycling it the way the simulator's loop does.
func (r *refQueue) pop(cancelAfter bool) {
	r.t.Helper()
	e := r.q.Pop()
	h := r.head()
	if h < 0 {
		if e != nil {
			r.t.Fatalf("%s: popped an event from an empty reference", r.where)
		}
		return
	}
	if e != r.pending[h] {
		r.t.Fatalf("%s: popped (%d), reference head (%d,%d)", r.where, e.At, r.pending[h].At, r.pending[h].seq)
	}
	r.pending = slices.Delete(r.pending, h, h+1)
	r.now = e.At
	r.check("pop")
	if cancelAfter {
		e.Cancel()
		r.check("cancel after fire")
	}
	r.q.Recycle(e)
}

func (r *refQueue) peek() {
	r.t.Helper()
	at, ok := r.q.PeekTime()
	if h := r.head(); ok != (h >= 0) || ok && at != r.pending[h].At {
		r.t.Fatalf("%s: PeekTime %d,%v disagrees with the reference", r.where, at, ok)
	}
}

// TestQueueMatchesSortedReference is the differential test of the
// two-tier queue: random schedule / weak-schedule / cancel / pop / peek
// sequences over every time class of refQueue.at run against the
// naive reference, and the queue's full state is checked after every
// step. The mix covers cancel-after-fire, double cancel, and a canceled
// event that the very next Schedule reuses.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := &refQueue{t: t}
		for step := 0; step < 600; step++ {
			r.where = fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(100); {
			case op < 40 || len(r.pending) == 0 && op < 80:
				r.schedule(r.at(rng.Intn(6), rng.Intn(256)), rng.Intn(6) == 0)
			case op < 58 && len(r.pending) > 0:
				r.cancel(rng.Intn(len(r.pending)), rng.Intn(3), r.at(rng.Intn(6), rng.Intn(256)))
			case op < 85:
				r.pop(rng.Intn(4) == 0)
			default:
				r.peek()
			}
		}
	}
}

// FuzzQueue decodes its input into steps of three bytes — an op, a time
// class (or pending index), and an offset within the class — and runs
// them against the sorted reference, checking every pop, every peek and
// the queue's full state after every step.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{})
	// An equal-time burst on one tick, drained.
	burst := []byte{}
	for range 20 {
		burst = append(burst, 0, 0, 0)
	}
	for range 21 {
		burst = append(burst, 10, 0, 0)
	}
	f.Add(burst)
	// Both window edges ±1, a far timer, and the past, interleaved with
	// pops that move the base.
	f.Add([]byte{0, 2, 0, 0, 2, 1, 0, 2, 2, 0, 2, 3, 0, 2, 4, 0, 2, 5, 0, 3, 9, 0, 4, 7, 10, 0, 0, 13, 0, 0,
		0, 1, 1, 0, 1, 2, 10, 0, 0, 10, 0, 0, 8, 0, 1, 10, 0, 0, 10, 0, 0, 13, 0, 0, 15, 0, 0})
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 900)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &refQueue{t: t}
		for i := 0; i+3 <= len(data); i += 3 {
			op, a, n := data[i]%16, int(data[i+1]), int(data[i+2])
			r.where = fmt.Sprintf("step %d", i/3)
			switch {
			case op < 6:
				r.schedule(r.at(a, n), false)
			case op < 8:
				r.schedule(r.at(a, n), true)
			case op < 10:
				if len(r.pending) > 0 {
					r.cancel(a%len(r.pending), n, r.at(n, a))
				}
			case op < 13:
				r.pop(n%4 == 0)
			default:
				r.peek()
			}
		}
	})
}
