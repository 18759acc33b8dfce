package check

// Unit tests for the race auditor's happens-before semantics over
// hand-built memAccess streams: each test is one minimal interleaving
// exercising a single rule (overwrite detection, the reads-from and
// futex-wake edges that suppress it, the same-value exemption, the
// missed-signal end-of-run scan and its gates).

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// rmw/store/load/wake/spin build one memAccess each.
func rmw(at sim.Time, tid, word int32, old, new uint64) memAccess {
	return memAccess{At: at, Kind: sim.MemRMW, TID: tid, Word: word, Old: old, New: new, Wrote: true}
}

func store(at sim.Time, tid, word int32, old, new uint64) memAccess {
	return memAccess{At: at, Kind: sim.MemStore, TID: tid, Word: word, Old: old, New: new, Wrote: true}
}

func load(at sim.Time, tid, word int32, v uint64) memAccess {
	return memAccess{At: at, Kind: sim.MemLoad, TID: tid, Word: word, Old: v, New: v}
}

func wake(at sim.Time, waker, word, wakee int32) memAccess {
	return memAccess{At: at, Kind: sim.MemFutexWake, TID: waker, Word: word, Arg: wakee}
}

func spinStart(at sim.Time, tid int32, watch ...int32) memAccess {
	return memAccess{At: at, Kind: sim.MemSpinStart, TID: tid, Word: -1, Watch: watch}
}

func feed(a *RaceAuditor, accs ...memAccess) {
	for _, acc := range accs {
		a.apply(&acc)
	}
}

func TestRaceOverwriteFlagged(t *testing.T) {
	a := newRaceAuditor(RaceOptions{})
	// Thread 1 claims word 0 atomically; thread 2 plain-stores over the
	// claim without ever having observed it.
	feed(a,
		rmw(10, 1, 0, 0, 1),
		store(20, 2, 0, 1, 0),
	)
	races := a.Finish(1_000)
	if len(races) != 1 || a.Total != 1 {
		t.Fatalf("races = %v (total %d), want exactly 1", races, a.Total)
	}
	r := races[0]
	if r.Kind != RaceOverwrite || r.Thread != 2 || r.Other != 1 || r.Word != 0 {
		t.Fatalf("wrong race: %+v", r)
	}
	if r.At != 20 || r.OtherAt != 10 {
		t.Fatalf("wrong timestamps: %+v", r)
	}
}

// TestRaceReadsFromSuppresses: a load of the word is a legitimate
// synchronization edge under sequential consistency — the store after it
// is ordered and must not be flagged.
func TestRaceReadsFromSuppresses(t *testing.T) {
	a := newRaceAuditor(RaceOptions{})
	feed(a,
		rmw(10, 1, 0, 0, 1),
		load(15, 2, 0, 1),
		store(20, 2, 0, 1, 0),
	)
	if races := a.Finish(1_000); len(races) != 0 {
		t.Fatalf("reads-from edge ignored: %v", races)
	}
}

// TestRaceSameValueExempt: overwriting a value with itself destroys
// nothing (a TAS loser's re-assertion of 1), and a same-value write must
// not count as a racy victim either (the winner's unlock is clean).
func TestRaceSameValueExempt(t *testing.T) {
	a := newRaceAuditor(RaceOptions{})
	feed(a,
		rmw(10, 1, 0, 0, 1),   // thread 1 claims
		store(20, 2, 0, 1, 1), // thread 2's stale claim writes 1 over 1: exempt
		store(30, 1, 0, 1, 0), // thread 1 unlocks; t2 left no modifying write
	)
	if races := a.Finish(1_000); len(races) != 0 {
		t.Fatalf("same-value stores flagged: %v", races)
	}
}

// TestRaceRelStoreExempt: a release-annotated store (Proc.StoreRel) is
// synchronization — never a racy overwrite — and acquires the word's
// clock, ordering the thread's later plain stores.
func TestRaceRelStoreExempt(t *testing.T) {
	relStore := func(at sim.Time, tid, word int32, old, new uint64) memAccess {
		acc := store(at, tid, word, old, new)
		acc.Rel = true
		return acc
	}
	a := newRaceAuditor(RaceOptions{})
	feed(a,
		rmw(10, 1, 0, 0, 1),
		relStore(20, 2, 0, 1, 2), // crosses t1's claim: tolerated by annotation
		store(30, 2, 0, 2, 0),    // plain, but ordered via the rel-store's acquire
	)
	if races := a.Finish(1_000); len(races) != 0 {
		t.Fatalf("release store flagged: %v", races)
	}
}

// TestRaceFutexWakeEdge: a FUTEX_WAKE orders the waker's writes before
// the wakee's; without the wake the same store races.
func TestRaceFutexWakeEdge(t *testing.T) {
	withEdge := newRaceAuditor(RaceOptions{})
	feed(withEdge,
		rmw(10, 1, 5, 0, 1),
		wake(20, 1, 5, 2),
		store(30, 2, 5, 1, 0),
	)
	if races := withEdge.Finish(1_000); len(races) != 0 {
		t.Fatalf("futex-wake edge ignored: %v", races)
	}

	without := newRaceAuditor(RaceOptions{})
	feed(without,
		rmw(10, 1, 5, 0, 1),
		store(30, 2, 5, 1, 0),
	)
	if races := without.Finish(1_000); len(races) != 1 {
		t.Fatalf("control without the wake: races = %v, want 1", races)
	}
}

// TestRaceSpinExitEdge: leaving a scoped spin acquires the watched
// words' release clocks — the claim after a spin-wait is ordered.
func TestRaceSpinExitEdge(t *testing.T) {
	a := newRaceAuditor(RaceOptions{})
	feed(a,
		rmw(10, 1, 0, 0, 1),
		spinStart(12, 2, 0),
		memAccess{At: 25, Kind: sim.MemSpinExit, TID: 2, Word: -1, Watch: []int32{0}},
		store(30, 2, 0, 1, 0),
	)
	if races := a.Finish(1_000); len(races) != 0 {
		t.Fatalf("spin-exit edge ignored: %v", races)
	}
}

// TestRaceKernelWriteVictim: an unobserved kernel-side write (slot 0,
// pseudo-tid -2) is a victim like any other.
func TestRaceKernelWriteVictim(t *testing.T) {
	a := newRaceAuditor(RaceOptions{})
	feed(a,
		memAccess{At: 10, Kind: sim.MemKernel, TID: -2, Word: 3, Old: 0, New: 7, Wrote: true},
		store(20, 1, 3, 7, 0),
	)
	races := a.Finish(1_000)
	if len(races) != 1 || races[0].Other != -2 {
		t.Fatalf("kernel victim not reported: %v", races)
	}
}

// TestRaceDedup: one synchronization gap is reported once, not once per
// subsequent store by the same thread.
func TestRaceDedup(t *testing.T) {
	a := newRaceAuditor(RaceOptions{})
	feed(a,
		rmw(10, 1, 0, 0, 1),
		store(20, 2, 0, 1, 0),
		store(25, 2, 0, 0, 2),
	)
	if races := a.Finish(1_000); len(races) != 1 || a.Total != 1 {
		t.Fatalf("duplicate reports for one gap: %v (total %d)", races, a.Total)
	}
}

// missedSignalSetup strands thread 5 in a spin on word 7 waiting
// for lock 0, with the spin start at t=100.
func missedSignalSetup(a *RaceAuditor) {
	a.LockEvent(100, sim.TraceSpinStart, 0, 5, 0)
	feed(a,
		store(90, 5, 7, 0, 1), // the spinner's own flag init
		spinStart(100, 5, 7),
	)
}

func TestRaceMissedSignal(t *testing.T) {
	a := newRaceAuditor(RaceOptions{})
	missedSignalSetup(a)
	races := a.Finish(5_000_000)
	if len(races) != 1 {
		t.Fatalf("stranded spinner not reported: %v", races)
	}
	r := races[0]
	if r.Kind != RaceMissedSignal || r.Thread != 5 || r.Lock != 0 || r.Word != 7 {
		t.Fatalf("wrong race: %+v", r)
	}
	if r.ThreadAt != 100 {
		t.Fatalf("wrong wait start: %+v", r)
	}
}

// TestRaceWordNames: a verdict names its word by id through the
// machine's name table; a word no access record touched (one only ever
// watched) stays unnamed and prints by id.
func TestRaceWordNames(t *testing.T) {
	m := sim.New(sim.Small(1))
	m.NewWord("a", 0)
	w := m.NewWordAt("dd.s", 3, ".count", 0)
	watched := m.NewWord("flag", 0)
	a := AttachRace(m, RaceOptions{})
	feed(a, rmw(10, 1, w.ID(), 0, 1), store(20, 2, w.ID(), 1, 0))
	a.LockEvent(100, sim.TraceSpinStart, 0, 5, 0)
	feed(a, spinStart(100, 5, watched.ID()))
	r := a.Finish(5_000_000)
	if len(r) != 2 || r[0].WordName != "dd.s3.count" || r[1].WordName != "" {
		t.Fatalf("machine-named verdicts: %+v", r)
	}
	if got := r[1].String(); !strings.Contains(got, fmt.Sprintf(" word %d ", watched.ID())) {
		t.Fatalf("an unaccessed word must print by id: %q", got)
	}
}

func TestRaceMissedSignalGates(t *testing.T) {
	t.Run("pending-write", func(t *testing.T) {
		// An unobserved modifying write to the watched word is a signal
		// still in flight: no verdict.
		a := newRaceAuditor(RaceOptions{})
		missedSignalSetup(a)
		feed(a, rmw(200, 6, 7, 1, 0))
		if races := a.Finish(5_000_000); len(races) != 0 {
			t.Fatalf("flagged with a signal in flight: %v", races)
		}
	})
	t.Run("live-holder", func(t *testing.T) {
		a := newRaceAuditor(RaceOptions{})
		missedSignalSetup(a)
		a.LockEvent(200, sim.TraceAcquire, 0, 9, 0)
		if races := a.Finish(5_000_000); len(races) != 0 {
			t.Fatalf("flagged with a live holder: %v", races)
		}
	})
	t.Run("within-stall-bound", func(t *testing.T) {
		// A spinner that has only just started waiting may be a handover
		// in flight at the horizon.
		a := newRaceAuditor(RaceOptions{})
		missedSignalSetup(a)
		if races := a.Finish(600_000); len(races) != 0 {
			t.Fatalf("flagged inside the stall bound: %v", races)
		}
	})
	t.Run("workload-spin", func(t *testing.T) {
		// A spin with no lock association is a workload-level wait
		// (barrier, pipeline stage), outside the auditor's claim.
		a := newRaceAuditor(RaceOptions{})
		feed(a, spinStart(100, 5, 7))
		if races := a.Finish(5_000_000); len(races) != 0 {
			t.Fatalf("flagged a workload spin: %v", races)
		}
	})
}

// TestRaceRegistryAndCap: Total keeps counting past MaxRaces and the
// registry counter tracks it.
func TestRaceRegistryAndCap(t *testing.T) {
	reg := obs.NewRegistry()
	a := newRaceAuditor(RaceOptions{MaxRaces: 1, Registry: reg})
	feed(a,
		rmw(10, 1, 0, 0, 1),
		store(20, 2, 0, 1, 0),
		rmw(30, 1, 1, 0, 1),
		store(40, 2, 1, 1, 0),
	)
	a.Finish(1_000)
	if len(a.Races()) != 1 || a.Total != 2 {
		t.Fatalf("cap/total wrong: stored %d, total %d", len(a.Races()), a.Total)
	}
	if got := reg.Counter("check.race." + string(RaceOverwrite)).Value(); got != 2 {
		t.Fatalf("registry counter = %d, want 2", got)
	}
}

// TestRaceDeterminism: the same stream yields byte-identical verdicts.
func TestRaceDeterminism(t *testing.T) {
	run := func() string {
		a := newRaceAuditor(RaceOptions{})
		names := map[int32]string{0: "shm"}
		a.lockName = func(id int32) string { return names[id] }
		missedSignalSetup(a)
		feed(a,
			rmw(10, 1, 0, 0, 1),
			store(20, 2, 0, 1, 0),
		)
		var b strings.Builder
		for _, r := range a.Finish(5_000_000) {
			fmt.Fprintln(&b, r.String())
		}
		return b.String()
	}
	x, y := run(), run()
	if x != y {
		t.Fatalf("verdicts differ across identical streams:\n%s\nvs\n%s", x, y)
	}
	if !strings.Contains(x, "[shm]") {
		t.Fatalf("lock name not resolved in %q", x)
	}
}
