package check

// The race auditor: a FastTrack-style vector-clock detector adapted to
// the simulator's sequentially-consistent, cooperatively-scheduled
// world. The Go race detector is blind here — sim "threads" are
// goroutines that never run concurrently, so every Word access is
// data-race-free at the Go level no matter how broken the lock
// protocol is. The auditor instead reconstructs happens-before in
// *virtual* time from the Word-access stream (sim.MemObserver):
//
//   - program order: each thread's accesses in stream order;
//   - reads-from: a load (plain load, atomic RMW, futex value check)
//     observes the latest write to the word, which in a sequentially-
//     consistent simulator is a legitimate synchronization edge, so
//     loads acquire the word's release clock;
//   - RMW chains: every successful atomic publishes the writer's clock;
//   - spin exits: a SpinOn waiter that stops spinning has observed its
//     watched words, acquiring their release clocks;
//   - futex wakes: FUTEX_WAKE merges the waker's clock into the wakee
//     (spurious fault-injected wakes carry no edge).
//
// Against that graph two verdicts are reported:
//
//   racy-overwrite — a plain (non-atomic) value-changing store to a
//   word with a value-modifying write by another thread not ordered
//   before it. The store can silently destroy that write under a
//   different interleaving: the check-then-act bug class (tas-noatomic
//   overwriting a winner's claim, fgNoWake's plain release clobbering
//   the waiters' "blocked" state). Stores that do not change the value
//   are exempt: overwriting a value with itself destroys nothing (the
//   TAS unlock racing only against failed re-assertions is correct).
//
//   missed-signal — at run end, a spinner stranded on a free,
//   long-inactive lock whose watched words carry no unobserved
//   modifying write: every signal that will ever arrive has already
//   arrived, so the wait can never end. This is the dropped-handover
//   bug class (mcs-nohandover), which no access-pair rule can catch
//   because the buggy unlock's access set is a strict subset of the
//   correct one.
//
// The auditor runs attached to a live machine (AttachRace): every
// campaign that audits races, and simtrace -races, attaches it to the
// run it is simulating.

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// RaceKind names a race-auditor verdict.
type RaceKind string

// The race verdicts.
const (
	// RaceOverwrite: a plain store raced with another thread's
	// value-modifying write (see package comment).
	RaceOverwrite RaceKind = "racy-overwrite"
	// RaceMissedSignal: a spinner stranded with no unobserved signal in
	// flight on any watched word.
	RaceMissedSignal RaceKind = "missed-signal"
)

// Race is one detected virtual-time data race. Thread/ThreadAt identify
// the racing access (the store, or the stranded spinner and its wait
// start); Other/OtherAt the conflicting one (the overwritten write, or
// the last modifying write to the watched words). Other is -2 for
// kernel-side writes, -1 when unknown.
type Race struct {
	Kind     RaceKind
	At       sim.Time
	Word     int32
	WordName string
	Thread   int32
	ThreadAt sim.Time
	Other    int32
	OtherAt  sim.Time
	Lock     int32 // lock the racing thread was operating on, -1 unknown
	LockName string
	Detail   string
}

func (r Race) String() string {
	where := r.WordName
	if where == "" {
		where = fmt.Sprintf("word %d", r.Word)
	}
	lock := r.LockName
	if lock == "" && r.Lock >= 0 {
		lock = fmt.Sprintf("lock %d", r.Lock)
	}
	if lock != "" {
		lock = " [" + lock + "]"
	}
	return fmt.Sprintf("[%s] t=%d %s%s thread %d (at t=%d) vs thread %d (at t=%d): %s",
		r.Kind, r.At, where, lock, r.Thread, r.ThreadAt, r.Other, r.OtherAt, r.Detail)
}

// RaceOptions tunes the auditor. The zero value selects the defaults.
type RaceOptions struct {
	// StallBound gates the missed-signal verdict: the spinner's wait and
	// the lock's inactivity must both exceed it, mirroring the
	// stalled-waiter gate so in-flight handovers at the horizon are
	// never miscounted. Default 1e6 ticks.
	StallBound sim.Time
	// MaxRaces caps stored races (Total keeps counting). Default 32.
	MaxRaces int
	// Registry, when set, receives a counter per verdict
	// ("check.race.<kind>").
	Registry *obs.Registry
	// EmitEvents, when set (and the auditor is machine-attached), emits
	// a TraceViolation instant with sim.ViolationDataRace per race.
	EmitEvents bool
}

func (o *RaceOptions) fill() {
	if o.StallBound <= 0 {
		o.StallBound = 1_000_000
	}
	if o.MaxRaces <= 0 {
		o.MaxRaces = 32
	}
}

// memAccess is one Word-access event with words flattened to their
// dense IDs: MemEvent translates the machine's event into one, and the
// unit tests feed hand-built streams of them.
type memAccess struct {
	At       sim.Time
	Kind     sim.MemKind
	TID      int32
	Word     int32 // -1 for spin events
	Old, New uint64
	Wrote    bool
	Arg      int32
	Rel      bool
	Watch    []int32
}

// vclock is a vector clock indexed by slot (thread id + 2, so the
// kernel pseudo-context -2 occupies slot 0). Missing entries are zero.
type vclock []uint64

// slot maps a thread id to its dense index in the auditor's and the
// checker's per-thread tables: thread ids are assigned in spawn order
// from 0, and the offset makes room for the kernel pseudo-ids -1 and -2.
func slot(tid int32) int { return int(tid) + 2 }

func slotTID(s int) int32 { return int32(s) - 2 }

// grow returns s extended to n entries, new ones set to fill. The
// observers' tables grow only on the first sight of an id, so this runs
// at most once per id and table, never per event.
//
//flexlint:coldpath
func grow[T any](s []T, n int, fill T) []T {
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}

func (v vclock) get(i int) uint64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

func (v *vclock) set(i int, x uint64) {
	if i >= len(*v) {
		*v = grow(*v, i+1, 0)
	}
	(*v)[i] = x
}

func (v *vclock) tick(i int) {
	if i >= len(*v) {
		*v = grow(*v, i+1, 0)
	}
	(*v)[i]++
}

func (v *vclock) join(o vclock) {
	if len(*v) < len(o) {
		*v = grow(*v, len(o), 0)
	}
	dst := (*v)[:len(o)]
	for i, x := range o {
		if x > dst[i] {
			dst[i] = x
		}
	}
}

// raceWord is the auditor's per-word view.
type raceWord struct {
	// named marks a word that an access record (a load, store, RMW or
	// kernel write) touched. A verdict names only a touched word
	// (wordName), so a word that was only ever watched prints as "word N".
	named bool
	// rel is the word's release clock: the join of every writer's clock
	// at its write. Loads, successful RMWs and spin exits acquire it.
	rel vclock
	// mod[s] is slot s's epoch at its last value-modifying write;
	// modAt[s] the virtual time of that write.
	mod   vclock
	modAt []sim.Time
}

// raceThread is the auditor's per-thread view, indexed by slot.
type raceThread struct {
	clock vclock
	// spinning marks a live spin op (between MemSpinStart and
	// MemSpinExit) that started at since and watches watch.
	spinning bool
	since    sim.Time
	watch    []int32
	// waitingOn is the lock the thread last spun or blocked on, lastLock
	// the lock of its latest lock event; -1 for none.
	waitingOn int32
	lastLock  int32
}

// setWatch copies ids into the thread's own watch storage: the record
// it comes from is reused for the next access.
func (t *raceThread) setWatch(ids []int32) {
	if cap(t.watch) < len(ids) {
		t.growWatch(len(ids))
	}
	t.watch = t.watch[:len(ids)]
	copy(t.watch, ids)
}

// growWatch allocates watch storage for n ids (at least the machine's
// three, so a thread allocates it once).
//
//flexlint:coldpath
func (t *raceThread) growWatch(n int) {
	t.watch = make([]int32, 0, max(n, len(sim.MemEvent{}.Watch)))
}

// raceLock is the auditor's per-lock view from the lock-event stream.
type raceLock struct {
	held         []bool // indexed by slot
	nheld        int
	lastActivity sim.Time
}

// RaceAuditor consumes the Word-access and lock-event streams and
// reports virtual-time data races. Attach it to a machine with
// AttachRace before Run and call Finish after. All state is rebuilt
// purely from events; results are deterministic (races are appended in
// stream order, end-of-run scans iterate in id order).
//
// State lives in dense slices indexed by id — threads by slot(tid),
// words by Word.ID, locks by the RegisterLockName id — grown the first
// time an id appears, so the per-event paths neither hash nor allocate.
// Ids must therefore be the machine's dense ones: tid >= -2 and word
// and lock ids >= 0.
type RaceAuditor struct {
	m *sim.Machine // nil when the unit tests drive it directly
	o RaceOptions

	threads  []raceThread
	words    []raceWord
	locks    []raceLock
	lockName func(int32) string

	// acc and watch are the reusable record MemEvent translates the
	// machine's event into.
	acc   memAccess
	watch [len(sim.MemEvent{}.Watch)]int32

	races []Race
	// Total counts all races, including ones beyond MaxRaces.
	Total    int64
	finished bool
}

// newRaceAuditor builds an auditor attached to no machine; AttachRace
// attaches it.
func newRaceAuditor(o RaceOptions) *RaceAuditor {
	o.fill()
	return &RaceAuditor{o: o, lockName: func(int32) string { return "" }}
}

// AttachRace installs an auditor on m: it becomes the machine's
// MemObserver and an additional LockObserver. Call before Run.
func AttachRace(m *sim.Machine, o RaceOptions) *RaceAuditor {
	a := newRaceAuditor(o)
	a.m = m
	a.lockName = m.LockName
	m.SetMemObserver(a)
	m.AddLockObserver(a)
	return a
}

// Races returns the stored races (the full set after Finish).
func (a *RaceAuditor) Races() []Race { return a.races }

// MemEvent implements sim.MemObserver: the machine's event is
// translated into the auditor's reusable record and applied, without
// copying the event or allocating.
func (a *RaceAuditor) MemEvent(ev *sim.MemEvent) {
	acc := &a.acc
	acc.At, acc.Kind, acc.TID, acc.Word = ev.At, ev.Kind, ev.TID, -1
	acc.Old, acc.New, acc.Wrote, acc.Arg, acc.Rel = ev.Old, ev.New, ev.Wrote, ev.Arg, ev.Rel
	if ev.W != nil {
		acc.Word = ev.W.ID()
	}
	n := 0
	for _, w := range ev.Watch {
		if w != nil {
			a.watch[n] = w.ID()
			n++
		}
	}
	acc.Watch = a.watch[:n]
	a.apply(acc)
}

// thread returns tid's state, growing the table on first sight. The
// pointer is valid until the next call that can grow the table.
func (a *RaceAuditor) thread(tid int32) *raceThread {
	s := slot(tid)
	if s >= len(a.threads) {
		a.threads = grow(a.threads, s+1, raceThread{waitingOn: -1, lastLock: -1})
	}
	return &a.threads[s]
}

// word returns word id's state, growing the table on first sight.
func (a *RaceAuditor) word(id int32) *raceWord {
	if int(id) >= len(a.words) {
		a.words = grow(a.words, int(id)+1, raceWord{})
	}
	return &a.words[id]
}

// accessed returns the state of the word an access record touches,
// marking it named (see raceWord).
func (a *RaceAuditor) accessed(acc *memAccess) *raceWord {
	w := a.word(acc.Word)
	w.named = true
	return w
}

// wordName names word id in a verdict through the machine's name table.
// A word no access record touched, or one seen with no machine attached,
// stays unnamed.
func (a *RaceAuditor) wordName(id int32) string {
	if a.m == nil || !a.word(id).named {
		return ""
	}
	return a.m.WordName(id)
}

// lock returns lock id's state, growing the table on first sight.
func (a *RaceAuditor) lock(id int32) *raceLock {
	if int(id) >= len(a.locks) {
		a.locks = grow(a.locks, int(id)+1, raceLock{})
	}
	return &a.locks[id]
}

// holds reports whether slot s holds l.
func (l *raceLock) holds(s int) bool { return s < len(l.held) && l.held[s] }

// apply feeds one Word-access record through the detector. Its ids must
// be the machine's dense ones (see RaceAuditor), and a spin-start or
// spin-exit record must carry a non-empty watch set: every spin
// declares the words it waits on, and a spin exit acquires only theirs.
func (a *RaceAuditor) apply(acc *memAccess) {
	switch acc.Kind {
	case sim.MemLoad:
		w := a.accessed(acc)
		a.thread(acc.TID).clock.join(w.rel)
	case sim.MemRMW, sim.MemKernel:
		c := &a.thread(acc.TID).clock
		w := a.accessed(acc)
		c.join(w.rel)
		if acc.Wrote {
			a.release(acc, c, w)
		}
	case sim.MemStore:
		c := &a.thread(acc.TID).clock
		w := a.accessed(acc)
		if acc.Rel {
			// A release-annotated store is synchronization, not a plain
			// write: like an RMW it joins the word's clock and is never a
			// racy overwrite (FlexGuard's out-of-order drain deliberately
			// lets a stale handover store cross a re-enqueue, §3.2.3).
			c.join(w.rel)
		} else if acc.Old != acc.New {
			a.checkStore(acc, c, w)
		}
		a.release(acc, c, w)
	case sim.MemSpinStart:
		// A resumed leg of the same (preempted) spin keeps its start.
		t := a.thread(acc.TID)
		if !t.spinning {
			t.spinning, t.since = true, acc.At
		}
		t.setWatch(acc.Watch)
	case sim.MemSpinExit:
		t := a.thread(acc.TID)
		for _, id := range acc.Watch {
			t.clock.join(a.word(id).rel)
		}
		t.spinning = false
	case sim.MemFutexWake:
		// Copy the waker's clock header before looking up the wakee: the
		// lookup may grow the thread table.
		waker := a.thread(acc.TID).clock
		a.thread(acc.Arg).clock.join(waker)
	}
}

// release publishes the writer's clock into the word, recording the
// epoch of a value-modifying write.
func (a *RaceAuditor) release(acc *memAccess, c *vclock, w *raceWord) {
	s := slot(acc.TID)
	c.tick(s)
	w.rel.join(*c)
	if acc.Old != acc.New {
		w.mod.set(s, c.get(s))
		if s >= len(w.modAt) {
			w.modAt = grow(w.modAt, s+1, 0)
		}
		w.modAt[s] = acc.At
	}
}

// checkStore flags a plain value-changing store whose word carries a
// value-modifying write by another thread not ordered before the store.
func (a *RaceAuditor) checkStore(acc *memAccess, c *vclock, w *raceWord) {
	self := slot(acc.TID)
	victim := -1
	var victimAt sim.Time
	for s, epoch := range w.mod {
		if s == self || epoch == 0 || epoch <= c.get(s) {
			continue
		}
		if victim < 0 || w.modAt[s] > victimAt {
			victim = s
			victimAt = w.modAt[s]
		}
	}
	if victim < 0 {
		return
	}
	a.overwrite(acc, victim, victimAt)
	// Treat the racing writes as observed so one sync gap is reported
	// once, not once per subsequent store.
	c.join(w.mod)
}

// overwrite records a racy-overwrite verdict against the victim slot's
// write at victimAt.
//
//flexlint:coldpath
func (a *RaceAuditor) overwrite(acc *memAccess, victim int, victimAt sim.Time) {
	lock := a.thread(acc.TID).lastLock
	a.flag(Race{
		Kind: RaceOverwrite, At: acc.At, Word: acc.Word,
		Thread: acc.TID, ThreadAt: acc.At,
		Other: slotTID(victim), OtherAt: victimAt,
		Lock: lock, LockName: a.lockName(lock),
		Detail: fmt.Sprintf("plain store %d -> %d overwrites thread %d's unobserved write",
			acc.Old, acc.New, slotTID(victim)),
	})
}

// flag records one race, naming its word if it is stored.
//
//flexlint:coldpath
func (a *RaceAuditor) flag(r Race) {
	a.Total++
	if a.o.Registry != nil {
		a.o.Registry.Counter("check.race." + string(r.Kind)).Inc()
	}
	if len(a.races) < a.o.MaxRaces {
		r.WordName = a.wordName(r.Word)
		a.races = append(a.races, r)
	}
	if a.o.EmitEvents && a.m != nil {
		a.m.KernelLockEvent(sim.TraceViolation, r.Lock, r.Thread, sim.ViolationDataRace)
	}
}

// LockEvent implements sim.LockObserver: the auditor tracks holders,
// waiters and per-lock activity to gate the missed-signal verdict and
// to label races with the lock being operated on.
func (a *RaceAuditor) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	if !kind.IsLockEvent() || lock < 0 {
		return
	}
	switch kind {
	case sim.TraceViolation, sim.TraceMonitorStale, sim.TracePolicySwitch,
		sim.TraceNPCSUp, sim.TraceNPCSDown:
		return
	}
	l := a.lock(lock)
	l.lastActivity = at
	t := a.thread(tid)
	t.lastLock = lock
	s := slot(tid)
	switch kind {
	case sim.TraceAcquire:
		if s >= len(l.held) {
			l.held = grow(l.held, s+1, false)
		}
		if !l.held[s] {
			l.held[s] = true
			l.nheld++
		}
		t.waitingOn = -1
	case sim.TraceRelease:
		if l.holds(s) {
			l.held[s] = false
			l.nheld--
		}
	case sim.TraceSpinStart, sim.TraceLockBlock:
		if !l.holds(s) {
			t.waitingOn = lock
		}
	}
}

// Finish runs the end-of-run missed-signal scan. quiesced is the value
// Run returned. Call exactly once; returns all stored races.
func (a *RaceAuditor) Finish(quiesced sim.Time) []Race {
	if a.finished {
		return a.races
	}
	a.finished = true
	for s := range a.threads {
		t := &a.threads[s]
		if !t.spinning {
			continue
		}
		lock := t.waitingOn
		if lock < 0 {
			continue // not spinning on a lock (workload-level spin)
		}
		if int(lock) >= len(a.locks) || a.locks[lock].nheld > 0 {
			continue // a live holder may still signal it
		}
		l := &a.locks[lock]
		if quiesced-t.since <= a.o.StallBound || quiesced-l.lastActivity <= a.o.StallBound {
			continue // possibly just a handover in flight at the horizon
		}
		// The race condition proper: no watched word carries a modifying
		// write the spinner has not already observed — every signal that
		// will ever arrive has arrived, and the spinner still waits.
		pending := false
		primary := int32(-1)
		var lastWriter int32 = -1
		var lastAt sim.Time
		for _, id := range t.watch {
			w := a.word(id)
			for sl, epoch := range w.mod {
				if epoch == 0 {
					continue
				}
				if epoch > t.clock.get(sl) {
					pending = true
				}
				if w.modAt[sl] >= lastAt {
					lastAt = w.modAt[sl]
					lastWriter = slotTID(sl)
					primary = id
				}
			}
		}
		if pending {
			continue
		}
		if primary < 0 {
			primary = t.watch[0]
		}
		a.flag(Race{
			Kind: RaceMissedSignal, At: quiesced, Word: primary,
			Thread: slotTID(s), ThreadAt: t.since,
			Other: lastWriter, OtherAt: lastAt,
			Lock: lock, LockName: a.lockName(lock),
			Detail: fmt.Sprintf("spinner stranded since t=%d on a lock inactive since t=%d; all watched-word writes observed — the wake signal was never written",
				t.since, l.lastActivity),
		})
	}
	return a.races
}
