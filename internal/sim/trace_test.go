package sim

import (
	"encoding/binary"
	"sort"
	"strings"
	"testing"
)

func TestTracerRecordsSchedulerEvents(t *testing.T) {
	m := small(2)
	tr := m.AttachTracer(1 << 14)
	w := m.NewWord("futex", 1)
	m.Spawn("blocker", func(p *Proc) {
		p.FutexWait(w, 1)
	})
	m.Spawn("waker", func(p *Proc) {
		p.Compute(20_000)
		p.Store(w, 0)
		p.FutexWake(w, 1)
	})
	m.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5_000)
	})
	m.Run(1_000_000)
	if tr.Count(TraceSwitch) == 0 {
		t.Fatal("no switches recorded")
	}
	if tr.Count(TraceBlock) != 1 {
		t.Fatalf("blocks recorded: %d, want 1", tr.Count(TraceBlock))
	}
	if tr.Count(TraceWake) != 1 {
		t.Fatalf("wakes recorded: %d, want 1", tr.Count(TraceWake))
	}
	if tr.Count(TraceSleep) != 1 {
		t.Fatalf("sleeps recorded: %d, want 1", tr.Count(TraceSleep))
	}
	if tr.Count(TraceExit) != 3 {
		t.Fatalf("exits recorded: %d, want 3", tr.Count(TraceExit))
	}
	// Events are in nondecreasing time order.
	evs := tr.Events()
	if !sort.SliceIsSorted(evs, func(i, j int) bool { return evs[i].At < evs[j].At }) {
		t.Fatal("trace not time-ordered")
	}
}

func TestTracerCapacity(t *testing.T) {
	m := small(1)
	tr := m.AttachTracer(4)
	for i := 0; i < 6; i++ {
		m.Spawn("w", func(p *Proc) { p.Compute(100) })
	}
	m.Run(1_000_000)
	if len(tr.Events()) != 4 {
		t.Fatalf("capacity not honored: %d events", len(tr.Events()))
	}
	if tr.Dropped == 0 {
		t.Fatal("drops not counted")
	}
}

// Drive the ring directly so wrap-around behaviour is deterministic:
// the ring keeps the NEWEST max events, Dropped counts the evicted
// older ones, and Events() restores time order after the wrap point.
func TestTracerWrapAroundKeepsNewest(t *testing.T) {
	tr := &Tracer{max: 4}
	for i := 0; i < 10; i++ {
		tr.record(Time(i), TraceSwitch, int32(i%3), -1, -1)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Newest four are At 6..9, in time order despite head != 0.
	for i, e := range evs {
		if e.At != Time(6+i) {
			t.Fatalf("event %d: At=%d want %d (events: %+v)", i, e.At, 6+i, evs)
		}
	}
	if tr.Dropped != 6 {
		t.Fatalf("Dropped=%d want 6", tr.Dropped)
	}
}

// Count is exact over the retained window even after the ring wraps: it
// sees exactly the events Events() returns.
func TestTracerWrapAroundCounts(t *testing.T) {
	tr := &Tracer{max: 5}
	// 12 events: alternate switch (thread i%2) and lock acquire.
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			tr.record(Time(i), TraceSwitch, int32(i/2%2), -1, -1)
		} else {
			tr.record(Time(i), TraceAcquire, int32(i/2%2), -1, 0)
		}
	}
	evs := tr.Events()
	wantSwitch, wantAcq := 0, 0
	for _, e := range evs {
		switch e.Kind {
		case TraceSwitch:
			wantSwitch++
		case TraceAcquire:
			wantAcq++
		}
	}
	if got := tr.Count(TraceSwitch); got != wantSwitch {
		t.Fatalf("Count(switch)=%d want %d", got, wantSwitch)
	}
	if got := tr.Count(TraceAcquire); got != wantAcq {
		t.Fatalf("Count(acquire)=%d want %d", got, wantAcq)
	}
	if tr.Dropped != 12-5 {
		t.Fatalf("Dropped=%d want 7", tr.Dropped)
	}
}

func TestTracerDumpLockEventsAndEvictionFooter(t *testing.T) {
	tr := &Tracer{max: 2}
	tr.record(0, TraceSwitch, 0, 1, -1)
	tr.record(5, TraceAcquire, 1, -1, 0)
	tr.record(9, TracePolicySwitch, -1, 1, -1)
	var sb strings.Builder
	tr.Dump(&sb, 0)
	out := sb.String()
	if !strings.Contains(out, "acquire") || !strings.Contains(out, "policy-switch") {
		t.Fatalf("dump missing lock events:\n%s", out)
	}
	if !strings.Contains(out, "1 older events evicted") {
		t.Fatalf("dump missing eviction footer:\n%s", out)
	}
}

func TestTracerDump(t *testing.T) {
	m := small(1)
	tr := m.AttachTracer(64)
	m.Spawn("w", func(p *Proc) { p.Sleep(1_000) })
	m.Run(100_000)
	var sb strings.Builder
	tr.Dump(&sb, 0)
	out := sb.String()
	if !strings.Contains(out, "switch") || !strings.Contains(out, "sleep") {
		t.Fatalf("dump missing events:\n%s", out)
	}
	if TraceKind(99).String() != "invalid" {
		t.Fatal("unknown kind should stringify as invalid")
	}
}

func TestNilTracerSafe(t *testing.T) {
	// Machines without a tracer must not crash on record calls.
	m := small(1)
	m.Spawn("w", func(p *Proc) { p.Compute(100) })
	m.Run(10_000) // records via nil tracer internally
}

// foldBytes is the reference digest fold: FNV-1a over each word's eight
// little-endian bytes, one xor-multiply per byte.
func foldBytes(h uint64, words []uint64) uint64 {
	for _, v := range words {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	return h
}

// FuzzDigestFold checks the zero-run fold against the byte-at-a-time
// FNV-1a loop over arbitrary word sequences. shift right-aligns every
// word by up to 63 bits, so runs of high zero bytes of every length
// (including all-zero words) are common.
func FuzzDigestFold(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint8(0))
	// One staged event: time, kind, prev<<32|next, lock = -1.
	f.Add([]byte{0x40, 0x42, 0x0f, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0,
		3, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint8(0))
	f.Add([]byte("flexguard digest fold"), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		var words []uint64
		for len(data) > 0 {
			var b [8]byte
			n := copy(b[:], data)
			data = data[n:]
			words = append(words, binary.LittleEndian.Uint64(b[:])>>(shift%64))
		}
		if got, want := foldWords(fnvOffset64, words), foldBytes(fnvOffset64, words); got != want {
			t.Fatalf("zero-run fold %016x, byte fold %016x over %x", got, want, words)
		}
	})
}
