package sim

// The Word-access trace stream: an opt-in observer fed every memory
// operation the machine applies to a Word — plain loads and stores,
// atomic RMWs, kernel-side writes, futex value checks and wakes, and
// spin-wait registration/exit. It is the dynamic complement of the
// lock-event stream: lock events say what an algorithm *claims* it did,
// Word-access events say what it actually did to shared memory. The
// race auditor (internal/check) consumes both.
//
// Emission follows the Tracer.record default-off pattern: with no
// observer attached every site is one nil check, and attaching one
// performs no scheduling, costs no virtual time, and draws no
// randomness — digests of an observed run are byte-identical to an
// unobserved one.

// MemKind classifies Word-access trace events.
type MemKind int8

const (
	// MemLoad is a costed plain load (Proc.Load) or the atomic value
	// check at the head of futex_wait.
	MemLoad MemKind = iota + 1
	// MemStore is a costed store (Proc.Store/StoreTo/StoreRel); Rel
	// distinguishes the release-annotated variant.
	MemStore
	// MemRMW is an atomic read-modify-write (CAS/Xchg/Add). Wrote
	// reports whether the word was written (a failed CAS only reads).
	MemRMW
	// MemKernel is a kernel-side write (KernelStore/KernelAdd) from a
	// sched_switch hook; TID is -2 (the kernel pseudo-context).
	MemKernel
	// MemSpinStart marks a thread registering as a live spinner; Watch
	// carries the declared watch set.
	MemSpinStart
	// MemSpinExit marks the end of a spin op: the condition was observed
	// false, or the budget expired (Arg = 1).
	MemSpinExit
	// MemFutexWake records one waiter woken: TID is the waker, Arg the
	// woken thread's id. Spurious (fault-injected) wakes emit nothing —
	// they carry no happens-before edge.
	MemFutexWake
)

func (k MemKind) String() string {
	switch k {
	case MemLoad:
		return "load"
	case MemStore:
		return "store"
	case MemRMW:
		return "rmw"
	case MemKernel:
		return "kernel"
	case MemSpinStart:
		return "spin-start"
	case MemSpinExit:
		return "spin-exit"
	case MemFutexWake:
		return "futex-wake"
	default:
		return "invalid"
	}
}

// MemEvent is one Word-access event. W is nil for spin events (their
// words are in Watch). TID is the acting thread, or -2 for kernel-side
// writes.
type MemEvent struct {
	At   Time
	Kind MemKind
	TID  int32
	W    *Word
	// Old and New are the word's value before and after the access
	// (equal for reads and for writes that did not change the value).
	Old, New uint64
	// Wrote reports whether the access wrote the word at all — true for
	// stores, kernel writes and successful RMWs even when New == Old.
	Wrote bool
	// Arg carries kind-specific data: the woken thread id for
	// MemFutexWake, 1 for a budget-expired MemSpinExit.
	Arg int32
	// Rel marks a MemStore issued through StoreRel: an atomic release
	// store, synchronization rather than a plain write.
	Rel bool
	// Watch is the spin op's declared word set (MemSpinStart/Exit).
	Watch [3]*Word
}

// MemObserver consumes the Word-access stream. Callbacks run
// synchronously inside the event loop and must not call Proc methods or
// mutate machine state. The event points into a buffer the machine
// reuses for every access: it is valid only for the duration of the
// call, so an observer that keeps an event must copy it.
type MemObserver interface {
	MemEvent(*MemEvent)
}

// SetMemObserver attaches (or with nil, detaches) the Word-access
// observer. Attach before Run.
func (m *Machine) SetMemObserver(o MemObserver) { m.mem = o }

// The emitters below fill the machine's event buffer field by field and
// hand the observer a pointer to it, so an access copies no event.
// Every field is rewritten on every emission: a recorder sees exactly
// the fields of the access at hand. Callers guard with `m.mem != nil`
// so the disabled cost stays a single branch.

// memAccess delivers a load, store, RMW or kernel write of w.
func (m *Machine) memAccess(kind MemKind, tid int32, w *Word, oldv, newv uint64, wrote, rel bool) {
	ev := &m.memBuf
	ev.At, ev.Kind, ev.TID, ev.W = m.clock, kind, tid, w
	ev.Old, ev.New, ev.Wrote, ev.Arg, ev.Rel = oldv, newv, wrote, 0, rel
	ev.Watch = [3]*Word{}
	m.mem.MemEvent(ev)
}

// memSpin delivers a spin registration or exit carrying t's watch set.
func (m *Machine) memSpin(kind MemKind, t *Thread, arg int32) {
	ev := &m.memBuf
	ev.At, ev.Kind, ev.TID, ev.W = m.clock, kind, tid(t), nil
	ev.Old, ev.New, ev.Wrote, ev.Arg, ev.Rel = 0, 0, false, arg, false
	ev.Watch = t.spinWatch
	m.mem.MemEvent(ev)
}

// memWake delivers one futex wake of woken by waker on w.
func (m *Machine) memWake(waker int32, w *Word, woken int32) {
	ev := &m.memBuf
	ev.At, ev.Kind, ev.TID, ev.W = m.clock, MemFutexWake, waker, w
	ev.Old, ev.New, ev.Wrote, ev.Arg, ev.Rel = 0, 0, false, woken, false
	ev.Watch = [3]*Word{}
	m.mem.MemEvent(ev)
}
