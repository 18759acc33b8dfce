package sim

import (
	"fmt"
	"testing"
)

// memRec is a MemObserver capturing the stream for assertions.
type memRec struct {
	m   *Machine
	evs []MemEvent
}

func (r *memRec) MemEvent(ev *MemEvent) { r.evs = append(r.evs, *ev) }

func (r *memRec) count(k MemKind) int {
	n := 0
	for _, e := range r.evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// memScenario runs a small contended futex scenario; rec may be nil.
func memScenario(rec *memRec) *Tracer {
	m := small(2)
	tr := m.AttachTracer(1 << 14)
	if rec != nil {
		rec.m = m
		m.SetMemObserver(rec)
	}
	w := m.NewWord("w", 1)
	flag := m.NewWord("flag", 0)
	m.Spawn("blocker", func(p *Proc) {
		p.FutexWait(w, 1)
		p.Add(flag, 1)
	})
	m.Spawn("spinner", func(p *Proc) {
		p.SpinOn(func() bool { return flag.V() == 0 }, flag)
		p.Load(flag)
	})
	m.Spawn("waker", func(p *Proc) {
		p.Compute(20_000)
		if p.CAS(w, 1, 0) != 1 {
			panic("lost CAS")
		}
		p.FutexWake(w, 1)
	})
	m.Run(1_000_000)
	return tr
}

func TestMemObserverStream(t *testing.T) {
	rec := &memRec{}
	memScenario(rec)
	if rec.count(MemLoad) < 2 { // futex value check + explicit load
		t.Fatalf("loads: %d, want >= 2", rec.count(MemLoad))
	}
	if rec.count(MemRMW) < 2 { // CAS + Add
		t.Fatalf("rmws: %d, want >= 2", rec.count(MemRMW))
	}
	if rec.count(MemFutexWake) != 1 {
		t.Fatalf("futex wakes: %d, want 1", rec.count(MemFutexWake))
	}
	if rec.count(MemSpinStart) == 0 || rec.count(MemSpinExit) == 0 {
		t.Fatalf("spin events missing: start=%d exit=%d",
			rec.count(MemSpinStart), rec.count(MemSpinExit))
	}
	var sawCAS bool
	for _, e := range rec.evs {
		if e.Kind == MemRMW && e.W != nil && rec.m.WordName(e.W.ID()) == "w" && e.Wrote && e.Old == 1 && e.New == 0 {
			sawCAS = true
		}
		if e.Kind != MemSpinStart && e.Kind != MemSpinExit && e.W == nil {
			t.Fatalf("non-spin event without a word: %+v", e)
		}
	}
	if !sawCAS {
		t.Fatal("the winning CAS (1 -> 0) was not observed")
	}
}

// TestMemObserverPreservesDigest: attaching the observer must not
// perturb the simulation — the trace digest is byte-identical with and
// without one.
func TestMemObserverPreservesDigest(t *testing.T) {
	base := memScenario(nil)
	obs := memScenario(&memRec{})
	if base.Digest() != obs.Digest() || base.Seen != obs.Seen {
		t.Fatalf("observer perturbed the run: digest %#x/%d events vs %#x/%d",
			base.Digest(), base.Seen, obs.Digest(), obs.Seen)
	}
}

// TestWordIDsDense: words get dense per-machine IDs in allocation order.
func TestWordIDsDense(t *testing.T) {
	m := small(1)
	a := m.NewWord("a", 0)
	bs := m.NewWords("b", 3)
	c := m.NewWord("c", 0)
	want := int32(0)
	for _, w := range []*Word{a, bs[0], bs[1], bs[2], c} {
		if w.ID() != want {
			t.Fatalf("%s: id %d, want %d", m.WordName(w.ID()), w.ID(), want)
		}
		want++
	}
}

// TestWordNames: every naming call names exactly the words it allocated,
// in each of its forms, and ids the machine never allocated have no name.
func TestWordNames(t *testing.T) {
	m := small(1)
	lid := m.RegisterLockName("dd.s7")
	m.NewWord("shm.lineA", 0)
	m.NewWords("pair", 2)
	m.NewWords("none", 0)
	m.NewWordAt("dd.s", 12, ".count", 0)
	m.NewWordsAt("ht.b", 3, ".keys", 2)
	m.NewLockWord(lid, ".val", 0)
	m.NewLockWordAt(lid, ".n", 4, ".locked", 0)
	m.NewWordAt("qnode", 0, "", 0)
	m.NewWord("", 0)
	want := []string{
		"shm.lineA", "pair", "pair", "dd.s12.count", "ht.b3.keys", "ht.b3.keys",
		"dd.s7.val", "dd.s7.n4.locked", "qnode0", "",
	}
	for id, w := range want {
		if got := m.WordName(int32(id)); got != w {
			t.Errorf("word %d: name %q, want %q", id, got, w)
		}
	}
	for _, id := range []int32{-1, int32(len(want))} {
		if got := m.WordName(id); got != "" {
			t.Errorf("word %d does not exist, but is named %q", id, got)
		}
	}
	if got := IndexedName("idx.n", 4161); got != "idx.n4161" {
		t.Errorf("IndexedName: %q", got)
	}
}

// TestWordNameRuns: a bulk loop's naming calls share table entries, and
// a loop whose shape changes mid-way (a longer element, a skipped index,
// a lock out of order) still names every word as its call spelled it.
func TestWordNameRuns(t *testing.T) {
	m := small(1)
	var want []string
	for i := 0; i < 40; i++ {
		lock := fmt.Sprintf("s%d", i)
		lid := m.RegisterLockName(lock)
		m.NewLockWord(lid, ".val", 0)
		want = append(want, lock+".val")
		m.NewWordAt("s", i, ".count", 0)
		want = append(want, fmt.Sprintf("s%d.count", i))
		n := 2
		if i%7 == 3 {
			n = 5
		}
		idx := i
		if i%11 == 5 {
			idx = 1000 + i
		}
		m.NewWordsAt("s", idx, ".vals", n)
		for j := 0; j < n; j++ {
			want = append(want, fmt.Sprintf("s%d.vals", idx))
		}
		if i%13 == 0 {
			m.NewLockWordAt(lid/2, ".n", i, ".next", 0)
			want = append(want, fmt.Sprintf("s%d.n%d.next", lid/2, i))
		}
	}
	for id, w := range want {
		if got := m.WordName(int32(id)); got != w {
			t.Fatalf("word %d: name %q, want %q", id, got, w)
		}
	}
	if len(m.names) > len(want)/4 {
		t.Fatalf("%d table entries for %d words: the loop's calls did not share entries", len(m.names), len(want))
	}
}
