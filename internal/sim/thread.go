package sim

import (
	"errors"

	"repro/internal/dist"
	"repro/internal/vtime"
)

// State is a simulated thread's scheduler state.
type State int8

// Thread states.
const (
	StateNew      State = iota // spawned, never dispatched
	StateRunnable              // on the runqueue
	StateRunning               // on a hardware context
	StateBlocked               // waiting on a futex
	StateSleeping              // in a timed sleep
	StateDone                  // exited
	// StateDead is appended after the original states so existing state
	// values are unchanged. A dead thread was crashed by Machine.Kill:
	// it never runs again, but unlike StateDone it did not exit cleanly —
	// its shared-memory words are frozen mid-protocol.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateDone:
		return "done"
	case StateDead:
		return "dead"
	default:
		return "invalid"
	}
}

// Region is the simulator analogue of the preemption address checked by
// the FlexGuard Preemption Monitor against assembly labels. Lock code sets
// the thread's Region at the points where labels sit in the paper's
// Listings 1–2; the monitor reads it in the sched_switch hook. Region 0
// (RegionNone) means "not inside any labeled lock-function window".
type Region int32

// RegionNone is the default region (not inside a lock/unlock window).
const RegionNone Region = 0

// errKilled terminates thread goroutines during machine shutdown.
var errKilled = errors.New("sim: thread killed at machine shutdown")

// pendingKind says how to resume a thread when it is next dispatched.
type pendingKind int8

const (
	pendStep    pendingKind = iota // resume the goroutine (start, or deliver op result)
	pendCompute                    // finish an interrupted Compute
	pendSpin                       // continue an interrupted spin
)

// Thread is a simulated kernel thread. The exported fields form the "task
// struct" visible to sched_switch hooks (the data the paper's eBPF program
// reads): the per-thread critical-section counter, the label region and the
// register holding the last atomic result, plus the monitor's own mark.
type Thread struct {
	// Task-struct fields visible to tracepoint hooks.
	CSCounter   int32  // per-thread count of critical sections held
	Region      Region // analogue of the preemption address vs. labels
	Reg         uint64 // analogue of RCX: result of the last tagged atomic
	MonitorMark bool   // monitor's is_cs_preempted flag
	MonitorHint *Word  // lock-specific counter hint (per-lock ablation mode)

	// Statistics, readable after the run.
	SpinIters   int64 // spin-loop iterations executed (Figure 5c)
	Ops         int64 // workload operations completed (fairness, throughput)
	LatSum      int64 // sum of recorded latencies (ticks)
	LatCount    int64 // number of recorded latencies
	latSamples  []int64
	latStride   int64
	Preemptions int64 // involuntary context switches
	Migrations  int64 // dispatches onto a different context than last time

	// Rand is this thread's private deterministic stream.
	Rand *dist.Rand

	id   int
	name string
	m    *Machine
	proc *Proc

	// Coroutine handoff (iter.Pull over the thread body). next, called
	// only by Machine.resume from whichever goroutine holds the turn,
	// runs the thread until it yields the turn back down or exits;
	// meanwhile the thread's own goroutine runs the event loop
	// (Machine.drive) whenever it waits for an op. onStack marks a
	// thread resumed that way and not yet yielded back: reaching it
	// again costs one switch down instead of a next. stop terminates
	// the thread (the parked yieldFn call returns false and the body
	// unwinds via errKilled). Exactly one goroutine of the machine runs
	// at a time.
	next    func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool
	onStack bool

	state   State
	cpu     int // hardware context while running, else -1
	lastCPU int // context of the most recent dispatch, -1 if never ran
	done    bool
	// rqNext links the thread into its runqueue shard's intrusive FIFO
	// (nil when not queued, or at the shard tail).
	rqNext *Thread

	// Current op plumbing.
	req       opReq
	res       opRes
	pending   pendingKind
	pendTicks Time // remaining compute ticks when pending == pendCompute

	// Spin bookkeeping (valid while the current op is a spin). The spin
	// operands live here rather than in opReq so the per-op request stays
	// a small fixed-cost copy; Proc.spin stages them before submitting.
	spinCond func() bool
	spinMax  Time // submitted spin budget (0 = unbounded)
	// spinWatch is the declared watch set (SpinOn), its non-nil words
	// first: cond depends only on these words, so only stores to them
	// re-evaluate the spinner.
	spinWatch  [3]*Word
	spinBudget Time // remaining spin ticks before timeout (0 = unbounded)
	spinStart  Time // when the current on-CPU spin leg began
	spinExitEv *vtime.Event
	spinTimeEv *vtime.Event
	spinReg    bool // currently on its watched words' watch lists

	// Pre-bound event callbacks, allocated once at Spawn. Steady-state
	// stepping schedules completions through these instead of fresh
	// closures, so the event loop allocates nothing beyond the queue's
	// free list. Each handler reads its operands from the thread (req,
	// dispatchCPU) at fire time.
	fnOp          func() // fixed-cost instruction completion (opFire)
	fnCompute     func() // compute-leg completion (computeFire)
	fnSpinExit    func() // spin condition observed false (spinExitCheck)
	fnSpinTimeout func() // bounded-spin budget expired on-CPU
	fnSpinFinal   func() // final check after budget exhausted off-CPU
	fnFutexWake   func() // wake-path latency elapsed
	fnSleepWake   func() // sleep duration elapsed
	fnSlice       func() // timeslice expiry (sliceFire)
	fnDispatch    func() // context-switch completion (dispatch)
	dispatchCPU   int32  // target context for the pending fnDispatch

	// Scheduling.
	sliceStart   Time
	sliceEnd     Time
	sliceEv      *vtime.Event
	opEv         *vtime.Event
	needResched  bool
	extendSlice  bool // user-space request (rseq-area flag)
	extGranted   bool // extension already granted this slice
	slicePenalty Time // reduction of the next slice (extension fairness)

	opNonPreempt bool // current op is a non-preemptible instruction
}

// ID returns the thread's dense identifier (0..N-1 in spawn order).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// State returns the scheduler state.
func (t *Thread) State() State { return t.state }

// LatencySamples returns the thread's strided latency reservoir (ticks),
// suitable for percentile estimation via stats.Percentile. The slice is
// the reservoir itself, not a copy: callers must not modify it, and it is
// valid until the thread records its next latency.
func (t *Thread) LatencySamples() []int64 {
	return t.latSamples[:len(t.latSamples):len(t.latSamples)]
}
