package sim

import (
	"fmt"
	"io"
	"math/bits"
)

// TraceKind classifies trace events.
type TraceKind int8

// Trace event kinds. The first group are scheduler events; the second
// group is the expanded lock-event trace model: lock algorithms emit
// them through Proc.LockEvent and the Preemption Monitor through
// Machine.KernelLockEvent.
const (
	TraceSwitch TraceKind = iota // context switch on a CPU (Prev -> Next)
	TraceBlock                   // thread blocked on a futex
	TraceWake                    // thread woken from a futex
	TraceSleep                   // thread entered a timed sleep
	TraceExit                    // thread finished

	// Lock events. Prev is the emitting thread; Lock identifies the lock
	// instance (see Machine.RegisterLockName), -1 for system-wide events.
	TraceAcquire      // lock acquired
	TraceRelease      // lock released
	TraceSpinStart    // waiter began a busy-wait leg on the lock
	TraceLockBlock    // waiter chose to block (futex) on the lock
	TraceLockWake     // releaser woke blocked waiter(s) on the lock
	TraceHandover     // queue lock handed over; Next is the successor
	TracePolicySwitch // flexguard policy flip; Next: 1 = spin→block, 0 = block→spin
	TraceNPCSUp       // num_preempted_cs incremented; Next is the new value
	TraceNPCSDown     // num_preempted_cs decremented; Next is the new value
	TraceMonitorStale // monitor health check marked the NPCS signal stale; Next is a StaleReason
	TraceViolation    // invariant checker flagged a violation; Next is a ViolationCode

	// Crash-model events, appended after the original kinds so existing
	// trace values (and every committed digest) are unchanged. They are
	// emitted only when a crash plan is attached, keeping crash-free runs
	// byte-identical.
	TraceCrash     // thread crashed (Machine.Kill); Prev is the dead thread, Lock -1
	TraceOwnerDead // kernel robust walk flagged a dead holder's lock; Next is the dead thread
	TraceRecover   // waiter claimed an owner-died lock (EOWNERDEAD recovery)
	TraceAbandon   // dead/stale waiter node unlinked from a queue; Next is the abandoned thread
)

// Reasons carried in the Next field of TraceMonitorStale events.
const (
	StaleEventLoss    int32 = 1 // hook lagging / dropping sched_switch events
	StaleCounterStuck int32 = 2 // NPCS nonzero and unchanged for too long
)

// Violation codes carried in the Next field of TraceViolation events.
// The invariant semantics live in internal/check; the codes are defined
// here so trace consumers (Perfetto export, dumps) can label them
// without importing the checker.
const (
	ViolationMutualExclusion int32 = iota + 1
	ViolationLostWakeup
	ViolationStarvation
	ViolationStalledWaiter
	ViolationDeadlock
	ViolationConservation
	// ViolationDataRace is appended after the original codes so existing
	// trace values (and every committed digest) are unchanged.
	ViolationDataRace
	// ViolationOrphanedLock: a crashed thread left a lock unrecoverable —
	// a dead holder (or a queue wedged by a dead waiter) strands live
	// waiters and no recovery path ever ran.
	ViolationOrphanedLock
)

// violationNames is the one name table for violation codes, indexed by
// code: internal/check's invariant names are these strings.
var violationNames = [...]string{
	ViolationMutualExclusion: "mutual-exclusion",
	ViolationLostWakeup:      "lost-wakeup",
	ViolationStarvation:      "starvation",
	ViolationStalledWaiter:   "stalled-waiter",
	ViolationDeadlock:        "deadlock",
	ViolationConservation:    "conservation",
	ViolationDataRace:        "data-race",
	ViolationOrphanedLock:    "orphaned-lock",
}

// ViolationCodeName resolves a TraceViolation argument to the invariant
// name used by internal/check.
func ViolationCodeName(code int32) string {
	if code > 0 && int(code) < len(violationNames) {
		return violationNames[code]
	}
	return "unknown"
}

// ViolationCode returns the code of the named invariant, 0 for a name
// with none.
func ViolationCode(name string) int32 {
	for code, n := range violationNames {
		if code > 0 && n == name {
			return int32(code)
		}
	}
	return 0
}

func (k TraceKind) String() string {
	switch k {
	case TraceSwitch:
		return "switch"
	case TraceBlock:
		return "block"
	case TraceWake:
		return "wake"
	case TraceSleep:
		return "sleep"
	case TraceExit:
		return "exit"
	case TraceAcquire:
		return "acquire"
	case TraceRelease:
		return "release"
	case TraceSpinStart:
		return "spin-start"
	case TraceLockBlock:
		return "lock-block"
	case TraceLockWake:
		return "lock-wake"
	case TraceHandover:
		return "handover"
	case TracePolicySwitch:
		return "policy-switch"
	case TraceNPCSUp:
		return "npcs-up"
	case TraceNPCSDown:
		return "npcs-down"
	case TraceMonitorStale:
		return "monitor-stale"
	case TraceViolation:
		return "violation"
	case TraceCrash:
		return "crash"
	case TraceOwnerDead:
		return "owner-dead"
	case TraceRecover:
		return "recover"
	case TraceAbandon:
		return "abandon"
	default:
		return "invalid"
	}
}

// IsLockEvent reports whether k belongs to the lock-event group.
func (k TraceKind) IsLockEvent() bool { return k >= TraceAcquire }

// TraceEvent is one recorded event. Prev/Next are thread ids (-1 = the
// idle task / not applicable), except for TracePolicySwitch and
// TraceNPCSUp/Down where Next carries the event's argument. Lock is the
// lock instance id for lock events (-1 otherwise; see
// Machine.LockName).
type TraceEvent struct {
	At   Time
	Kind TraceKind
	Prev int32
	Next int32
	Lock int32
}

// Tracer records events into a fixed-capacity ring buffer: once full,
// each new event overwrites the oldest one, so the *newest* events are
// kept and Dropped counts the evicted older ones. Runs that need the
// head of the trace should size accordingly. Attach with
// Machine.AttachTracer before Run.
type Tracer struct {
	events []TraceEvent
	max    int
	head   int // next overwrite position once the ring is full
	full   bool
	// Dropped counts older events evicted after the ring filled.
	Dropped int64
	// Streaming digest state: every event is folded into an FNV-1a hash
	// before ring eviction, so Digest is exact over the full event
	// stream regardless of the ring capacity. Seen counts all events
	// ever recorded (buffered plus evicted).
	//
	// The fold is batched: record stages each event's four key words in
	// pending and the FNV loop runs over whole runs of events at once
	// (flush), keeping the multiply-xor dependency chain out of the
	// per-event path. Batching cannot change the hash — FNV-1a is a
	// sequential fold and flush preserves word order exactly.
	digest  uint64
	pending []uint64
	Seen    int64
}

// digestBatch is the pending-buffer flush threshold in words (a multiple
// of the 4 words per event). pending is pre-sized to this capacity so
// steady-state recording never allocates.
const digestBatch = 512

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64^k (mod 2^64). Folding a zero byte into an
// FNV-1a state is a bare multiply by the prime — the xor with zero is a
// no-op — so a run of k zero bytes folds as one multiply by
// fnvPrimePow[k].
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// AttachTracer installs a tracer keeping the newest max events.
func (m *Machine) AttachTracer(max int) *Tracer {
	if max <= 0 {
		max = 1 << 16
	}
	tr := &Tracer{max: max, digest: fnvOffset64, pending: make([]uint64, 0, digestBatch)}
	m.tracer = tr
	return tr
}

// Digest returns the FNV-1a hash of every event recorded so far (time,
// kind, thread ids and lock id of each, in stream order). Two runs are
// behaviourally identical exactly when their digests and Seen counts
// match; scheduler refactors that change semantics cannot hide from it.
func (tr *Tracer) Digest() uint64 {
	tr.flush()
	return tr.digest
}

// flush folds the staged key words into the digest, in staging order.
func (tr *Tracer) flush() {
	tr.digest = foldWords(tr.digest, tr.pending)
	tr.pending = tr.pending[:0]
}

// foldWords folds each word's eight little-endian bytes into the FNV-1a
// state h. A word's high zero bytes — most of the time word, kind word
// and lock word of an event — fold as one multiply (see fnvPrimePow),
// which leaves the hash equal to the byte-at-a-time fold.
func foldWords(h uint64, words []uint64) uint64 {
	for _, v := range words {
		n := (bits.Len64(v) + 7) / 8 // bytes up to the highest nonzero one
		for i := 0; i < n; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
		h *= fnvPrimePow[8-n]
	}
	return h
}

// record appends an event, evicting the oldest at capacity.
func (tr *Tracer) record(at Time, kind TraceKind, prev, next, lock int32) {
	if tr == nil {
		return
	}
	ev := TraceEvent{At: at, Kind: kind, Prev: prev, Next: next, Lock: lock}
	tr.Seen++
	//flexlint:allow hotalloc digest batch buffer; reaches digestBatch capacity once and is reused
	tr.pending = append(tr.pending,
		uint64(at),
		uint64(kind),
		uint64(uint32(prev))<<32|uint64(uint32(next)),
		uint64(uint32(lock)))
	if len(tr.pending) >= digestBatch {
		tr.flush()
	}
	if len(tr.events) < tr.max {
		//flexlint:allow hotalloc trace ring fills to its cap once, then overwrites in place
		tr.events = append(tr.events, ev)
		return
	}
	tr.events[tr.head] = ev
	tr.head++
	if tr.head == tr.max {
		tr.head = 0
	}
	tr.full = true
	tr.Dropped++
}

// Events returns the recorded events in time order (oldest kept first).
// After wrap-around this allocates a reordered copy.
func (tr *Tracer) Events() []TraceEvent {
	if !tr.full || tr.head == 0 {
		return tr.events
	}
	out := make([]TraceEvent, 0, len(tr.events))
	out = append(out, tr.events[tr.head:]...)
	out = append(out, tr.events[:tr.head]...)
	return out
}

// Count returns the number of recorded (still-buffered) events of the
// given kind. Ring position is irrelevant to counting, so this is exact
// across wrap-around for the retained window.
func (tr *Tracer) Count(kind TraceKind) int {
	n := 0
	for _, e := range tr.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Dump writes a human-readable listing of up to limit events, oldest
// retained first.
func (tr *Tracer) Dump(w io.Writer, limit int) {
	evs := tr.Events()
	if limit <= 0 || limit > len(evs) {
		limit = len(evs)
	}
	for _, e := range evs[:limit] {
		switch {
		case e.Kind == TraceSwitch:
			fmt.Fprintf(w, "%12d switch  %4d -> %4d\n", e.At, e.Prev, e.Next)
		case e.Kind.IsLockEvent():
			fmt.Fprintf(w, "%12d %-13s thr=%-4d lock=%-4d arg=%d\n", e.At, e.Kind, e.Prev, e.Lock, e.Next)
		default:
			fmt.Fprintf(w, "%12d %-7s %4d\n", e.At, e.Kind, e.Prev)
		}
	}
	if tr.Dropped > 0 {
		fmt.Fprintf(w, "... %d older events evicted from the ring\n", tr.Dropped)
	}
}

// tid returns a thread's id or -1 for nil (idle).
func tid(t *Thread) int32 {
	if t == nil {
		return -1
	}
	return int32(t.id)
}
