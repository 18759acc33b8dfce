package sim

import "repro/internal/dist"

// Proc is a simulated thread's handle for performing work. Every memory
// access, atomic instruction, spin loop, computation and system call goes
// through Proc so the machine can account time, apply preemption, and
// linearize effects in virtual-time order.
//
// Metadata calls (SetRegion, SetExtendSlice, CountOp, Now, ID) are free:
// they model information that costs nothing at run time (assembly labels,
// an rseq-area flag, reading an already-loaded TSC value).
type Proc struct {
	t *Thread
	m *Machine
}

// opKind enumerates simulated operations.
type opKind int8

const (
	opCompute opKind = iota + 1
	opLoad
	opStore
	opCAS
	opXchg
	opAdd
	opSpin
	opFutexWait
	opFutexWake
	opYield
	opSleep
	opCSAdd
)

// opFlags packs an op's boolean modifiers into one byte, keeping opReq
// small: the struct is copied on every op submission (Proc method call →
// do → Thread.req), so its size is hot-loop state.
type opFlags uint8

const (
	// flagRegionAfter applies regionAfter atomically with the op's
	// effect, modeling a label immediately following the instruction
	// (e.g. at_store).
	flagRegionAfter opFlags = 1 << iota
	// flagSetReg stores the result in Thread.Reg (the RCX idiom).
	flagSetReg
	// flagRel marks an atomic release store (StoreRel): identical cost
	// and effect to a plain store, but the MemEvent carries the
	// annotation so race-detecting observers treat it as synchronization.
	flagRel
)

// opReq describes the operation a thread is blocked on. Spin operands
// (condition, budget, watch set) live on the Thread instead — they are
// cold relative to the fixed-cost ops and would triple the struct's
// copy cost.
type opReq struct {
	kind        opKind
	flags       opFlags
	regionAfter Region
	w           *Word
	a, b        uint64 // operands (old/new, value, delta, expect, ticks, wake count)
}

// opRes carries an operation's result back to the thread.
type opRes struct {
	val     uint64
	ok      bool
	timeout bool
}

// do runs the op and returns its result, parking the thread until the
// machine delivers it when the op needs an event.
//
// While this goroutine holds the turn, every other goroutine of the
// machine is parked in a coroutine switch (see Machine.drive), so the
// thread has exclusive access to machine state. A fixed-cost op —
// compute, load, store, atomic, TLS op — therefore completes right here
// when nothing can observe or perturb the interval it spans: its
// completion must land strictly before both the run horizon and the
// earliest pending event (canInline). An event-scheduled completion
// would then have fired next with nothing in between, so applying the
// effect now and advancing the clock is observationally identical: the
// same virtual instant, effect and random-stream order, without a
// continuation and the coroutine switches that dominate the event loop's
// real-time cost. The
// cost is computed ahead of the guard, exactly once, because loadCost and
// rmwCost mutate cache-line state and draw jitter. Any other op schedules
// its completion here and suspends: that Schedule call would otherwise be
// the machine's next action after the switch, so its order is unchanged.
func (p *Proc) do(req opReq) opRes {
	t := p.t
	m := p.m
	t.req = req
	switch req.kind {
	case opCompute:
		n := Time(req.a)
		if n <= 0 {
			n = 1
		}
		if m.canInline(n) {
			m.clock += n
			t.res = opRes{}
			return p.inlineDone()
		}
		m.scheduleCompute(t, n)
	case opLoad, opStore, opCAS, opXchg, opAdd, opCSAdd:
		cost := m.fixedCost(t)
		if m.canInline(cost) {
			m.clock += cost
			m.applyOpEffect(t)
			return p.inlineDone()
		}
		m.instr(t, cost)
	default:
		m.execOp(t)
	}
	p.suspend()
	return t.res
}

// inlineDone ends an op the fast path completed. With a fault injector
// attached, boundary runs the instruction-boundary seams here, exactly as
// finishOp does after an event-completed op. Without one the seams are
// no-ops: the deferred reschedule never fires on the thread side (see
// atBoundary). inlineDone stays small enough for the compiler to inline
// into do, so an injector-free op pays one nil check.
func (p *Proc) inlineDone() opRes {
	if p.m.fi != nil {
		p.boundary()
	}
	return p.t.res
}

// boundary runs the seams for the op just completed on the thread side.
// When they kill or preempt the thread, it suspends having scheduled
// nothing and resumes from here at its next dispatch, its result intact;
// a killed thread unwinds at shutdown instead.
func (p *Proc) boundary() {
	if !p.m.atBoundary(p.t) {
		p.suspend()
	}
}

// suspend runs the event loop on the thread's own goroutine until a
// callback names the thread to continue (see Machine.drive).
func (p *Proc) suspend() {
	p.m.drive(p.t)
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.m.clock }

// ID returns the thread id.
func (p *Proc) ID() int { return p.t.id }

// Thread returns the underlying thread (for post-run statistics).
func (p *Proc) Thread() *Thread { return p.t }

// Rand returns the thread's private deterministic random stream.
func (p *Proc) Rand() *dist.Rand { return p.t.Rand }

// Machine returns the machine this thread runs on.
func (p *Proc) Machine() *Machine { return p.m }

// Compute burns n ticks of CPU (application work, hashing, etc.). It is
// preemptible: a timeslice may expire mid-computation.
func (p *Proc) Compute(n Time) {
	if n <= 0 {
		return
	}
	p.do(opReq{kind: opCompute, a: uint64(n)})
}

// Pause executes one spin-loop pause iteration.
func (p *Proc) Pause() {
	p.t.SpinIters++
	p.do(opReq{kind: opCompute, a: uint64(p.m.cfg.Costs.Pause)})
}

// Load reads w with cache-cost accounting.
func (p *Proc) Load(w *Word) uint64 {
	return p.do(opReq{kind: opLoad, w: w}).val
}

// Store writes w with cache-cost accounting.
func (p *Proc) Store(w *Word, v uint64) {
	p.do(opReq{kind: opStore, w: w, a: v})
}

// StoreRel writes w like Store but annotates the write as an atomic
// release store (C11 store-release). The simulation is unaffected —
// same cost, same effect, same event stream — but race-detecting
// observers treat the write as synchronization rather than a plain
// store. Lock code uses it where the algorithm deliberately tolerates
// concurrent writes to the same word (e.g. FlexGuard's out-of-order MCS
// drain, §3.2.3, where a stale handover store may cross a re-enqueue).
func (p *Proc) StoreRel(w *Word, v uint64) {
	p.do(opReq{kind: opStore, w: w, a: v, flags: flagRel})
}

// CAS atomically compares w to old and, if equal, sets it to new. It
// returns the prior value (compare to old to detect success) and stores it
// in Thread.Reg, mirroring the paper's inline-assembly idiom of pinning
// the atomic's result into RCX for the Preemption Monitor.
func (p *Proc) CAS(w *Word, old, new uint64) uint64 {
	return p.do(opReq{kind: opCAS, w: w, a: old, b: new, flags: flagSetReg}).val
}

// Xchg atomically exchanges w's value with v, returning the prior value
// (also latched into Thread.Reg).
func (p *Proc) Xchg(w *Word, v uint64) uint64 {
	return p.do(opReq{kind: opXchg, w: w, a: v, flags: flagSetReg}).val
}

// XchgTo is Xchg plus an atomic transition to region r with the effect
// (e.g. the unlock store followed immediately by the at_store label).
func (p *Proc) XchgTo(w *Word, v uint64, r Region) uint64 {
	return p.do(opReq{kind: opXchg, w: w, a: v, regionAfter: r, flags: flagSetReg | flagRegionAfter}).val
}

// Add atomically adds delta to w and returns the new value.
func (p *Proc) Add(w *Word, delta int64) uint64 {
	return p.do(opReq{kind: opAdd, w: w, a: uint64(delta)}).val
}

// SpinOn spins while cond() reports true. The machine advances virtual
// time without enumerating iterations; the thread occupies its hardware
// context, its timeslice keeps expiring, and iterations are accounted into
// SpinIters. Returns once cond() is observed false.
//
// ws is the spin's watch set: cond must depend only on the values of the
// given Words (at least one and at most three distinct, nils ignored).
// The machine re-evaluates the spinner only on stores to a watched word,
// not on every store in the system. Declaring a watch set that does not
// cover every word cond reads is a correctness bug: the spinner can miss
// its wakeup. A watch set with no non-nil word panics.
func (p *Proc) SpinOn(cond func() bool, ws ...*Word) {
	p.spin(cond, 0, watchSet(ws))
}

// SpinOnMax is SpinOn with an on-CPU budget of max ticks. It returns
// true if cond became false, false on timeout. Time spent preempted does
// not consume budget (spin-then-park timeouts count spinning work).
func (p *Proc) SpinOnMax(cond func() bool, max Time, ws ...*Word) bool {
	watch := watchSet(ws)
	if max <= 0 {
		return !cond()
	}
	return !p.spin(cond, max, watch).timeout
}

// spin stages the spin operands on the thread (they are read by the
// machine side after the handoff) and submits the op.
func (p *Proc) spin(cond func() bool, max Time, watch [3]*Word) opRes {
	t := p.t
	t.spinCond = cond
	t.spinMax = max
	t.spinWatch = watch
	return p.do(opReq{kind: opSpin})
}

// watchSet packs a watch list into the thread's fixed-size watch set,
// dropping nils and duplicates. It panics unless one to three distinct
// words remain.
func watchSet(ws []*Word) [3]*Word {
	var out [3]*Word
	n := 0
	for _, w := range ws {
		if w == nil {
			continue
		}
		dup := false
		for i := 0; i < n; i++ {
			if out[i] == w {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if n == len(out) {
			panic("sim: SpinOn supports at most three watched words")
		}
		out[n] = w
		n++
	}
	if n == 0 {
		panic("sim: SpinOn needs at least one non-nil word to watch")
	}
	return out
}

// FutexWait blocks the thread if w's value equals expect at syscall time,
// until woken by FutexWake. It returns false immediately (EAGAIN) if the
// value differs.
func (p *Proc) FutexWait(w *Word, expect uint64) bool {
	return p.do(opReq{kind: opFutexWait, w: w, a: expect}).ok
}

// FutexWake wakes up to n threads blocked on w, in FIFO order, returning
// the number woken.
func (p *Proc) FutexWake(w *Word, n int) int {
	return int(p.do(opReq{kind: opFutexWake, w: w, a: uint64(n)}).val)
}

// Yield releases the CPU to the next runnable thread (sched_yield). If no
// other thread is runnable the caller keeps running.
func (p *Proc) Yield() {
	p.do(opReq{kind: opYield})
}

// Sleep blocks the thread for d ticks.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	p.do(opReq{kind: opSleep, a: uint64(d)})
}

// IncCS increments the thread's critical-section counter (the user-space
// cs_counter TLS variable of Listing 1). It is a real instruction: a
// preemption can land between the acquiring atomic and this increment,
// which is exactly the window the monitor's register check covers.
func (p *Proc) IncCS() {
	p.do(opReq{kind: opCSAdd, a: 1})
}

// DecCS decrements the critical-section counter.
func (p *Proc) DecCS() {
	p.do(opReq{kind: opCSAdd, a: uint64(^uint64(0))}) // -1
}

// SetRegion sets the thread's label region (free; labels cost nothing).
func (p *Proc) SetRegion(r Region) { p.t.Region = r }

// LockEvent emits a lock event from this thread (free: like SetRegion it
// models information — a USDT probe point — that costs nothing at run
// time; recording only happens when a Tracer or LockObserver is
// attached).
func (p *Proc) LockEvent(kind TraceKind, lock int32) {
	p.m.lockEvent(kind, lock, int32(p.t.id), -1)
}

// LockEventArg is LockEvent with an argument (e.g. the successor thread
// of a TraceHandover).
func (p *Proc) LockEventArg(kind TraceKind, lock, arg int32) {
	p.m.lockEvent(kind, lock, int32(p.t.id), arg)
}

// SetExtendSlice sets or clears the user-space timeslice-extension request
// flag (the rseq-area bit of the kernel patch in §2.4). Free.
func (p *Proc) SetExtendSlice(on bool) { p.t.extendSlice = on }

// CountOp records one completed workload operation (free bookkeeping).
func (p *Proc) CountOp() { p.t.Ops++ }

// latSampleCap bounds the per-thread latency reservoir.
const latSampleCap = 512

// RecordLatency accumulates one latency sample in ticks (free
// bookkeeping). A deterministic strided reservoir keeps up to 512
// samples per thread for percentile reporting (Thread.LatencySamples).
func (p *Proc) RecordLatency(d Time) {
	t := p.t
	t.LatSum += d
	t.LatCount++
	if t.latStride == 0 {
		t.latStride = 1
	}
	if (t.LatCount-1)%t.latStride == 0 {
		if len(t.latSamples) == latSampleCap {
			// Compact: keep every other sample, double the stride.
			kept := t.latSamples[:0]
			for i := 0; i < latSampleCap; i += 2 {
				kept = append(kept, t.latSamples[i])
			}
			t.latSamples = kept
			t.latStride *= 2
			if (t.LatCount-1)%t.latStride != 0 {
				return
			}
		}
		t.latSamples = append(t.latSamples, int64(d))
	}
}
