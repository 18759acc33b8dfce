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

func BenchmarkQueueScheduleAndPop(b *testing.B) {
	var q Queue
	for i := 0; i < b.N; i++ {
		q.Schedule(Time(i%128), func() {})
		if q.Len() > 64 {
			q.Pop()
		}
	}
}

// checkHeap verifies the queue's whole state against the reference
// list of pending events: the exact Len and StrongLen, the 4-ary heap
// order, every tracked index, the keys stored next to each event, and
// that no entry is canceled.
func checkHeap(t *testing.T, q *Queue, pending []*Event, where string) {
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
	for i, en := range q.heap {
		switch {
		case en.ev.index != i:
			t.Fatalf("%s: entry %d tracks index %d", where, i, en.ev.index)
		case en.at != en.ev.At || en.seq != en.ev.seq:
			t.Fatalf("%s: entry %d key (%d,%d) != event (%d,%d)", where, i, en.at, en.seq, en.ev.At, en.ev.seq)
		case en.ev.canceled || en.ev.pooled:
			t.Fatalf("%s: entry %d is canceled or pooled", where, i)
		case !slices.Contains(pending, en.ev):
			t.Fatalf("%s: entry %d is not pending in the reference", where, i)
		case i > 0 && en.before(q.heap[(i-1)/arity]):
			t.Fatalf("%s: entry %d fires before its parent", where, i)
		}
	}
}

// TestQueueMatchesSortedReference is the differential test of the
// live-only heap: random schedule / weak-schedule / cancel / pop / peek /
// reset sequences run against a naive reference (the pending events in
// scheduling order, whose head is the minimum time, earliest scheduled
// on ties), and the queue's full state is checked after every step. The
// mix covers cancel-after-fire, double cancel, and a canceled event that
// the very next Schedule reuses.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var pending []*Event // in scheduling order
		now := Time(0)
		head := func() int {
			best := -1
			for i, e := range pending {
				if best < 0 || e.At < pending[best].At {
					best = i
				}
			}
			return best
		}
		schedule := func(weak bool) *Event {
			at := now + Time(rng.Intn(6)) // ties are frequent
			var e *Event
			if weak {
				e = q.ScheduleWeak(at, func() {})
			} else {
				e = q.Schedule(at, func() {})
			}
			if slices.Contains(pending, e) || e.Canceled() || e.index < 0 {
				t.Fatalf("seed %d: Schedule returned a pending or stale event", seed)
			}
			pending = append(pending, e)
			return e
		}
		for step := 0; step < 600; step++ {
			where := func(op string) string { return fmt.Sprintf("seed %d step %d (%s)", seed, step, op) }
			switch r := rng.Intn(100); {
			case r < 40 || len(pending) == 0 && r < 80:
				schedule(rng.Intn(6) == 0)
				checkHeap(t, &q, pending, where("schedule"))
			case r < 58 && len(pending) > 0:
				i := rng.Intn(len(pending))
				e := pending[i]
				free := len(q.free)
				e.Cancel()
				pending = slices.Delete(pending, i, i+1)
				if !e.Canceled() || e.index != -1 || len(q.free) != free+1 {
					t.Fatalf("%s: canceled event not removed and recycled", where("cancel"))
				}
				checkHeap(t, &q, pending, where("cancel"))
				switch rng.Intn(3) {
				case 0: // double cancel is a no-op
					e.Cancel()
					if len(q.free) != free+1 {
						t.Fatalf("%s: double cancel recycled the event twice", where("double cancel"))
					}
				case 1: // the next Schedule reuses the canceled event
					if r := schedule(false); r != e {
						t.Fatalf("%s: Schedule did not reuse the canceled event", where("reuse"))
					}
				}
				checkHeap(t, &q, pending, where("after cancel"))
			case r < 85:
				e := q.Pop()
				h := head()
				if h < 0 {
					if e != nil {
						t.Fatalf("%s: popped an event from an empty reference", where("pop"))
					}
					break
				}
				if e != pending[h] {
					t.Fatalf("%s: popped (%d), reference head (%d)", where("pop"), e.At, pending[h].At)
				}
				pending = slices.Delete(pending, h, h+1)
				now = e.At
				checkHeap(t, &q, pending, where("pop"))
				// Cancel after fire changes nothing; the event is then
				// recycled the way the simulator's loop does.
				if rng.Intn(4) == 0 {
					e.Cancel()
					checkHeap(t, &q, pending, where("cancel after fire"))
				}
				q.Recycle(e)
			case r < 97:
				at, ok := q.PeekTime()
				h := head()
				if ok != (h >= 0) || ok && at != pending[h].At {
					t.Fatalf("%s: PeekTime %d,%v disagrees with the reference", where("peek"), at, ok)
				}
			default:
				q.Reset()
				pending = pending[:0]
				checkHeap(t, &q, pending, where("reset"))
			}
		}
	}
}
