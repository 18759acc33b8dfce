package sim

// jitter returns a small deterministic extra latency (0..Costs.Jitter),
// modeling coherence-arbitration variance; see Costs.Jitter.
func (m *Machine) jitter() Time {
	j := m.cfg.Costs.Jitter
	if j <= 0 {
		return 0
	}
	return Time(m.rng.Intn(int(j) + 1))
}

// execOp schedules the completion of an op with scheduling side effects
// (spin, futex, yield, sleep). Proc.do calls it on the thread side, just
// before the thread suspends; compute and fixed-cost ops never get here,
// because do completes them inline or schedules them itself.
func (m *Machine) execOp(t *Thread) {
	req := &t.req
	switch req.kind {
	case opSpin:
		t.spinBudget = t.spinMax
		m.resumeSpin(t)
	case opFutexWait:
		// Value check and blocking happen atomically at syscall completion
		// (futexWaitDone).
		m.instr(t, m.cfg.Costs.Syscall)
	case opFutexWake:
		cost := m.cfg.Costs.Syscall
		if len(m.futexQ[req.w]) > 0 {
			// Waking real waiters costs the waker the full wake path.
			cost += m.cfg.Costs.FutexWakeWork
		}
		m.instr(t, cost)
	case opYield:
		m.instr(t, m.cfg.Costs.Syscall) // effect applied in finish path
	case opSleep:
		m.instr(t, m.cfg.Costs.Syscall)
	default:
		panic("sim: unknown op kind")
	}
}

// fixedCost computes the duration of a fixed-cost instruction, mutating
// cache-line coherence state and drawing the RMW jitter. Call exactly once
// per instruction, at its start instant.
func (m *Machine) fixedCost(t *Thread) Time {
	req := &t.req
	switch req.kind {
	case opLoad:
		return m.loadCost(t.cpu, req.w)
	case opStore:
		return m.rmwCost(t.cpu, req.w, false) + m.jitter()
	case opCSAdd:
		return m.cfg.Costs.TLSOp
	default:
		return m.rmwCost(t.cpu, req.w, true) + m.jitter()
	}
}

// canInline reports whether an op completing at clock+cost can run
// synchronously: strictly before the run horizon (an event at exactly the
// horizon does not execute) and strictly before the earliest pending
// event (on a time tie the already-queued event holds the lower sequence
// number and would fire first).
func (m *Machine) canInline(cost Time) bool {
	end := m.clock + cost
	if end >= m.horizon {
		return false
	}
	at, ok := m.eq.PeekTime()
	return !ok || end < at
}

// applyOpEffect applies the memory/result effect of the current
// instruction on t. It runs either inline (fast-forward path) or from the
// instruction's completion event, in both cases at the op's completion
// time.
func (m *Machine) applyOpEffect(t *Thread) {
	req := &t.req
	switch req.kind {
	case opLoad:
		t.res = opRes{val: req.w.v}
		if m.mem != nil {
			m.memAccess(MemLoad, tid(t), req.w, req.w.v, req.w.v, false, false)
		}
	case opStore:
		old := req.w.v
		req.w.v = req.a
		t.res = opRes{}
		if m.mem != nil {
			m.memAccess(MemStore, tid(t), req.w, old, req.a, true, req.flags&flagRel != 0)
		}
		m.applyRegionAfter(t, req)
		m.checkSpinners(req.w)
	case opCAS:
		old := req.w.v
		if old == req.a {
			req.w.v = req.b
		}
		t.res = opRes{val: old}
		if req.flags&flagSetReg != 0 {
			t.Reg = old
		}
		if m.mem != nil {
			m.memAccess(MemRMW, tid(t), req.w, old, req.w.v, old == req.a, false)
		}
		m.applyRegionAfter(t, req)
		m.checkSpinners(req.w)
	case opXchg:
		old := req.w.v
		req.w.v = req.a
		t.res = opRes{val: old}
		if req.flags&flagSetReg != 0 {
			t.Reg = old
		}
		if m.mem != nil {
			m.memAccess(MemRMW, tid(t), req.w, old, req.a, true, false)
		}
		m.applyRegionAfter(t, req)
		m.checkSpinners(req.w)
	case opAdd:
		old := req.w.v
		req.w.v = uint64(int64(req.w.v) + int64(req.a))
		t.res = opRes{val: req.w.v}
		if m.mem != nil {
			m.memAccess(MemRMW, tid(t), req.w, old, req.w.v, true, false)
		}
		m.applyRegionAfter(t, req)
		m.checkSpinners(req.w)
	case opCSAdd:
		t.CSCounter += int32(int64(req.a))
		if t.CSCounter < 0 {
			panic("sim: cs_counter went negative")
		}
		t.res = opRes{}
	case opFutexWake:
		t.res = opRes{val: uint64(m.futexWake(req.w, int(req.a), tid(t)))}
	case opFutexWait, opYield, opSleep:
		// No memory effect; scheduling handled in opFire.
	}
}

// applyRegionAfter applies an op's atomic region transition (the label
// directly following an instruction).
func (m *Machine) applyRegionAfter(t *Thread, req *opReq) {
	if req.flags&flagRegionAfter != 0 {
		t.Region = req.regionAfter
	}
}

// instr schedules a non-preemptible instruction of the given cost. The
// completion callback is the thread's pre-bound opFire handler — the op
// kind and operands live in Thread.req, so scheduling allocates nothing.
func (m *Machine) instr(t *Thread, cost Time) {
	t.opNonPreempt = true
	t.pending = pendStep
	t.opEv = m.eq.Schedule(m.clock+cost, t.fnOp)
}

// opFire completes a scheduled instruction: apply the effect recorded in
// Thread.req, then finalize it at its boundary, through the handler of
// an op whose completion changes scheduling state or through finishOp.
func (m *Machine) opFire(t *Thread) {
	t.opEv = nil
	t.opNonPreempt = false
	m.applyOpEffect(t)
	switch t.req.kind {
	case opFutexWait:
		m.futexWaitDone(t)
	case opYield:
		m.yieldDone(t)
	case opSleep:
		m.sleepDone(t)
	default:
		m.finishOp(t)
	}
}

// ---- Compute ----

func (m *Machine) scheduleCompute(t *Thread, n Time) {
	if n <= 0 {
		n = 1
	}
	t.pending = pendCompute
	t.pendTicks = n
	t.opEv = m.eq.Schedule(m.clock+n, t.fnCompute)
}

// computeFire completes a scheduled compute leg.
func (m *Machine) computeFire(t *Thread) {
	t.opEv = nil
	t.res = opRes{}
	m.finishOp(t)
}

// ---- Spin ----

// resumeSpin (re)starts the current spin op on-CPU: either the condition
// is already false (one observation iteration, then done), the budget is
// exhausted (timeout), or the thread registers as a live spinner.
func (m *Machine) resumeSpin(t *Thread) {
	t.pending = pendSpin
	t.spinStart = m.clock
	if t.spinMax > 0 && t.spinBudget <= 0 {
		// Budget consumed on earlier legs; deliver the timeout after one
		// final check iteration.
		m.eq.Schedule(m.clock+m.cfg.Costs.Pause, t.fnSpinFinal)
		return
	}
	if !t.spinCond() {
		t.spinExitEv = m.eq.Schedule(m.clock+m.cfg.Costs.Pause+m.jitter(), t.fnSpinExit)
		m.registerSpinner(t)
		return
	}
	m.registerSpinner(t)
	if t.spinMax > 0 {
		t.spinTimeEv = m.eq.Schedule(m.clock+t.spinBudget, t.fnSpinTimeout)
	}
}

// registerSpinner appends t to the watch lists of its declared words.
// Each list stays in registration order, the order checkSpinners
// re-evaluates its spinners in.
func (m *Machine) registerSpinner(t *Thread) {
	t.spinReg = true
	for _, w := range t.spinWatch {
		if w != nil {
			if w.watch == 0 {
				m.newWatchList(w)
			}
			m.watchers[w.watch] = append(m.watchers[w.watch], int32(t.id)) //flexlint:allow hotalloc unregisterSpinner deletes in place, so the list keeps its capacity across spin legs
		}
	}
	if m.mem != nil {
		m.memSpin(MemSpinStart, t, 0)
	}
}

// newWatchList gives w an empty list in the watch table on the first
// spin that watches it. Index 0 is reserved for words never watched.
//
//flexlint:coldpath
func (m *Machine) newWatchList(w *Word) {
	if len(m.watchers) == 0 {
		m.watchers = append(m.watchers, nil)
	}
	w.watch = int32(len(m.watchers))
	m.watchers = append(m.watchers, nil)
}

// unregisterSpinner removes t from the watch lists registerSpinner put it
// on. No-op if t is not currently registered (e.g. the budget-exhausted
// final-check wait, which never registers).
func (m *Machine) unregisterSpinner(t *Thread) {
	if !t.spinReg {
		return
	}
	t.spinReg = false
	for _, w := range t.spinWatch {
		if w == nil {
			continue
		}
		l := m.watchers[w.watch]
		for i, s := range l {
			if s == int32(t.id) {
				m.watchers[w.watch] = append(l[:i], l[i+1:]...) //flexlint:allow hotalloc in-place slice delete; never grows
				break
			}
		}
	}
}

// checkSpinners re-evaluates the spin conditions that a store to w can
// have changed: those of the spinners watching w, in registration order.
// Spinners whose condition turned false observe it after the detection
// latency. Spinners on other words are skipped entirely: by the SpinOn
// contract their conditions cannot have changed, so evaluating them
// would find them true and draw no jitter. A word never spun on costs
// one load and one branch.
func (m *Machine) checkSpinners(w *Word) {
	if w.watch == 0 {
		return
	}
	for _, id := range m.watchers[w.watch] {
		t := m.threads[id]
		if t.spinExitEv == nil && !t.spinCond() {
			t.spinExitEv = m.eq.Schedule(m.clock+m.cfg.Costs.SpinDetect+m.jitter(), t.fnSpinExit)
		}
	}
}

// spinExitCheck fires when a spinner is due to observe its condition
// false; the condition may have flipped back, in which case spinning
// continues.
func (m *Machine) spinExitCheck(t *Thread) {
	t.spinExitEv = nil
	if t.state != StateRunning || t.pending != pendSpin {
		return // stale: the spinner was preempted meanwhile
	}
	if t.spinCond() {
		return // flipped back; remain registered and spinning
	}
	m.completeSpin(t, false)
}

// spinTimeoutFire ends a bounded spin that exhausted its budget on-CPU.
func (m *Machine) spinTimeoutFire(t *Thread) {
	t.spinTimeEv = nil
	if t.state != StateRunning || t.pending != pendSpin {
		return
	}
	m.completeSpin(t, true)
}

// completeSpin finalizes the spin op.
func (m *Machine) completeSpin(t *Thread, timeout bool) {
	m.endSpinLeg(t, true)
	if m.mem != nil {
		var arg int32
		if timeout {
			arg = 1
		}
		m.memSpin(MemSpinExit, t, arg)
	}
	t.res = opRes{timeout: timeout}
	m.finishOp(t)
}

// pauseSpin interrupts a spin because of preemption: deregister, account
// the on-CPU leg against the budget, and arrange resumption.
func (m *Machine) pauseSpin(t *Thread) {
	m.endSpinLeg(t, true)
	if t.spinMax > 0 {
		t.spinBudget -= m.clock - t.spinStart
	}
	t.pending = pendSpin
}

// endSpinLeg ends t's on-CPU spin leg: it charges the leg to SpinIters
// when account is set, leaves the watch lists and cancels both spin
// timers.
func (m *Machine) endSpinLeg(t *Thread, account bool) {
	if account {
		m.accountSpin(t)
	}
	m.unregisterSpinner(t)
	if t.spinExitEv != nil {
		t.spinExitEv.Cancel()
		t.spinExitEv = nil
	}
	if t.spinTimeEv != nil {
		t.spinTimeEv.Cancel()
		t.spinTimeEv = nil
	}
}

// accountSpin attributes the elapsed on-CPU spin leg to SpinIters.
func (m *Machine) accountSpin(t *Thread) {
	elapsed := m.clock - t.spinStart
	iters := elapsed / m.cfg.Costs.Pause
	if iters < 1 {
		iters = 1
	}
	t.SpinIters += iters
	t.spinStart = m.clock
}

// ---- Futex ----

// futexWaitDone runs at the end of the futex_wait syscall entry: check the
// expected value atomically and either return EAGAIN or block.
func (m *Machine) futexWaitDone(t *Thread) {
	req := &t.req
	if m.mem != nil {
		// The futex's atomic value check reads the word whether the
		// thread blocks or bails with EAGAIN.
		m.memAccess(MemLoad, tid(t), req.w, req.w.v, req.w.v, false, false)
	}
	if req.w.v != req.a {
		t.res = opRes{ok: false}
		m.finishOp(t)
		return
	}
	c := m.cpus[t.cpu]
	m.detach(t)
	t.state = StateBlocked
	m.setRunnable(-1)
	m.lockEvent(TraceBlock, -1, tid(t), -1)
	t.pending = pendStep // result delivered when rescheduled after wake
	m.futexQ[req.w] = append(m.futexQ[req.w], t)
	if m.fi != nil {
		if d := m.fi.SpuriousWakeDelay(t); d > 0 {
			w := req.w
			m.eq.Schedule(m.clock+d, func() { m.spuriousWake(w, t) })
		}
	}
	if m.ci != nil {
		if d := m.ci.CrashParkedDelay(t); d > 0 {
			// Kill only a thread still parked when the delay elapses: a
			// woken (or exited) waiter is no longer the parked victim
			// the plan targeted. Either way the injector learns the
			// outcome, so it counts only crashes that landed.
			m.eq.Schedule(m.clock+d, func() {
				landed := t.state == StateBlocked
				if landed {
					m.Kill(t)
				}
				m.ci.CrashParkedOutcome(t, landed)
			})
		}
	}
	m.contextSwitch(c, t, m.pickNext(c))
}

// spuriousWake (fault injection) yanks t out of w's wait queue as a real
// futex can: the wait returns ok=false with the thread having observed
// nothing. Callers of FutexWait must re-check their predicate — every
// lock in the tree loops — so a correct lock tolerates this; a lock that
// treats "returned from futex_wait" as "I was handed the lock" breaks.
func (m *Machine) spuriousWake(w *Word, t *Thread) {
	q := m.futexQ[w]
	for i, wt := range q {
		if wt != t {
			continue
		}
		q = append(q[:i], q[i+1:]...)
		if len(q) == 0 {
			delete(m.futexQ, w)
		} else {
			m.futexQ[w] = q
		}
		t.res = opRes{ok: false}
		m.lockEvent(TraceWake, -1, tid(t), -1)
		if t.state == StateBlocked {
			m.makeRunnable(t)
		}
		return
	}
}

// futexWake wakes up to n FIFO waiters on w, returning the count. Woken
// threads become dispatchable after the wakeup-path latency, via their
// pre-bound wake callback (a waiter is off the futex queue once a wake is
// in flight, so at most one wake event per thread is ever pending).
// waker is the calling thread's id, carried on the Word-access stream as
// the happens-before edge a real FUTEX_WAKE establishes.
func (m *Machine) futexWake(w *Word, n int, waker int32) int {
	q := m.futexQ[w]
	woken := 0
	for woken < n && len(q) > 0 {
		wt := q[0]
		q = q[1:]
		wt.res = opRes{ok: true}
		m.lockEvent(TraceWake, -1, tid(wt), -1)
		if m.mem != nil {
			m.memWake(waker, w, tid(wt))
		}
		lat := m.cfg.Costs.WakeLatency
		if m.fi != nil {
			lat = m.fi.WakeDelay(wt, lat)
		}
		if lat > 0 {
			m.eq.Schedule(m.clock+lat, wt.fnFutexWake)
			wt.state = StateBlocked // remains blocked during the wake path
		} else {
			m.makeRunnable(wt)
		}
		woken++
	}
	if len(q) == 0 {
		delete(m.futexQ, w)
	} else {
		//flexlint:allow hotalloc writes a shrunk queue back under its existing key; no growth
		m.futexQ[w] = q
	}
	return woken
}

// FutexWaiters reports how many threads are blocked on w (post-run
// inspection and tests).
func (m *Machine) FutexWaiters(w *Word) int { return len(m.futexQ[w]) }

// KernelFutexWake wakes up to n waiters on w from kernel context — the
// wake the kernel issues after flagging a dead holder's robust futex.
// waker identifies the dead thread on the event stream.
func (m *Machine) KernelFutexWake(w *Word, n int, waker int32) int {
	return m.futexWake(w, n, waker)
}

// ---- Yield / sleep ----

func (m *Machine) yieldDone(t *Thread) {
	t.res = opRes{}
	if m.runqLen() == 0 {
		m.finishOp(t)
		return
	}
	c := m.cpus[t.cpu]
	next := m.pickNext(c)
	if next == nil {
		m.finishOp(t)
		return
	}
	m.detach(t)
	t.state = StateRunnable
	t.pending = pendStep
	m.runqPushLocal(c, t)
	m.contextSwitch(c, t, next)
}

func (m *Machine) sleepDone(t *Thread) {
	d := Time(t.req.a)
	c := m.cpus[t.cpu]
	m.detach(t)
	t.state = StateSleeping
	m.setRunnable(-1)
	m.lockEvent(TraceSleep, -1, tid(t), -1)
	t.pending = pendStep
	t.res = opRes{}
	m.eq.Schedule(m.clock+d, t.fnSleepWake)
	m.contextSwitch(c, t, m.pickNext(c))
}
