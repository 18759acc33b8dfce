// Package monitor implements the FlexGuard Preemption Monitor (paper §3.1,
// Listing 1): a handler attached to the scheduler's sched_switch tracepoint
// that detects, synchronously and without heuristics, when a thread is
// switched out while inside a critical section, and maintains the
// num_preempted_cs counter read by lock algorithms.
//
// On real hardware the monitor is an eBPF program reading the preempted
// thread's stack (preemption address vs. assembly labels), saved registers
// (the XCHG/CAS result pinned into RCX) and the user-space cs_counter TLS
// variable. In the simulator those three signals are the Thread's Region,
// Reg and CSCounter fields; the structure of the handler is otherwise
// identical to Listing 1.
package monitor

import "repro/internal/sim"

// Classifier decides whether a thread being switched out with CSCounter==0
// is nonetheless inside a lock-function window where the lock is held
// (the at_xchg/at_break/at_store label logic of Listing 1). It is
// lock-algorithm specific and set by the lock implementation.
//
// The returned counter selects which num_preempted_cs word the preemption
// is charged to; nil selects the system-wide counter. Only the per-lock
// ablation mode (paper §3.2.2) returns non-nil counters.
//
// recheck reports that the thread is in a window whose verdict can change
// while it is off-CPU: a thread preempted while waiting in an MCS queue
// may be handed the lock before it runs again (§3.2.2's next-waiter
// preemption), and no sched_switch fires for it then. The monitor
// re-classifies such a thread at later switches and marks it when it
// classifies as in-CS while still in a recheck window.
type Classifier func(t *sim.Thread) (inCS bool, counter *sim.Word, recheck bool)

// Monitor is the Preemption Monitor instance attached to one machine.
type Monitor struct {
	m         *sim.Machine
	global    *sim.Word
	classify  Classifier    // nil: only cs_counter marks a thread
	pending   []*sim.Thread // preempted threads in a recheck window
	perLock   bool
	chargedTo map[*sim.Thread]*sim.Word // which counter a mark was charged to

	stale  *sim.Word    // health flag read by lock algorithms (0 = fresh)
	deg    *Degradation // active fault-injection mode, nil when healthy
	delayQ []switchRec  // withheld events when deg.DelaySwitches > 0
	health healthState

	// InCSPreemptions counts critical-section preemptions detected over
	// the run (diagnostics).
	InCSPreemptions int64
	// Reschedules counts preempted-in-CS threads switched back in.
	Reschedules int64
	// SpinToBlockSwitches counts policy flips into blocking mode (a
	// num_preempted_cs counter crossing 0 -> 1); BlockToSpinSwitches the
	// flips back (1 -> 0). In per-lock ablation mode each lock's counter
	// crossing counts separately.
	SpinToBlockSwitches int64
	BlockToSpinSwitches int64

	// HookSeen counts raw sched_switch tracepoint firings; Processed
	// counts the events the handler actually consumed. They diverge only
	// under degradation — the gap is what the health check watches.
	HookSeen  int64
	Processed int64
}

// Option configures Attach.
type Option func(*Monitor)

// PerLockCounters enables the §3.2.2 ablation: preemptions are charged to
// the counter returned by the classifier (one per lock) instead of the
// system-wide counter. The paper shows this performs worse; the ablation
// benchmark reproduces that claim.
func PerLockCounters() Option {
	return func(mo *Monitor) { mo.perLock = true }
}

// Attach installs the Preemption Monitor on m's sched_switch tracepoint
// and returns it. Attach before spawning threads.
func Attach(m *sim.Machine, opts ...Option) *Monitor {
	mo := &Monitor{
		m:         m,
		global:    m.NewWord("num_preempted_cs", 0),
		stale:     m.NewWord("monitor_stale", 0),
		chargedTo: make(map[*sim.Thread]*sim.Word),
	}
	for _, o := range opts {
		o(mo)
	}
	m.RegisterSwitchHook(mo.schedSwitch)
	return mo
}

// NPCS returns the system-wide num_preempted_cs word. Lock algorithms read
// it (it is an eBPF global variable shared with user space); only the
// monitor writes it.
func (mo *Monitor) NPCS() *sim.Word { return mo.global }

// PerLock reports whether the per-lock ablation mode is active.
func (mo *Monitor) PerLock() bool { return mo.perLock }

// SetClassifier sets the lock-family classifier consulted for threads
// whose cs_counter is zero at switch-out time.
func (mo *Monitor) SetClassifier(c Classifier) { mo.classify = c }

// process is the real tracepoint handler body — the structure mirrors
// Listing 1, plus the re-examination of threads preempted in a recheck
// window (next-waiter preemptions). schedSwitch (degrade.go) decides
// whether/when each event reaches it.
func (mo *Monitor) process(prev, next *sim.Thread) {
	// If next was previously preempted in a critical section, it is now
	// back on CPU: clear the mark and decrement the counter.
	if next != nil && next.MonitorMark {
		next.MonitorMark = false
		nv := mo.m.KernelAdd(mo.counterFor(next), -1)
		mo.m.KernelLockEvent(sim.TraceNPCSDown, -1, int32(next.ID()), int32(nv))
		if nv == 0 {
			mo.BlockToSpinSwitches++
			mo.m.KernelLockEvent(sim.TracePolicySwitch, -1, int32(next.ID()), 0)
		}
		mo.Reschedules++
	}
	if next != nil {
		mo.unpend(next)
	}
	mo.recheckPending()
	if prev == nil || prev.State() == sim.StateDone {
		return
	}
	inCS := prev.CSCounter > 0 // values > 1 indicate nesting
	var counter *sim.Word
	recheck := false
	if !inCS {
		// cs_counter == 0: consult the label windows inside the lock
		// functions (preemption address + register checks).
		if mo.classify != nil {
			inCS, counter, recheck = mo.classify(prev)
		}
	} else if mo.perLock {
		counter = prev.MonitorHint
	}
	if inCS {
		mo.mark(prev, counter)
	} else if recheck {
		// Not in CS yet, but it may become the MCS holder while off-CPU.
		mo.pending = append(mo.pending, prev)
	}
}

// mark flags a thread as a preempted critical section.
func (mo *Monitor) mark(t *sim.Thread, counter *sim.Word) {
	t.MonitorMark = true
	w := mo.resolve(counter)
	mo.chargedTo[t] = w
	nv := mo.m.KernelAdd(w, +1)
	mo.m.KernelLockEvent(sim.TraceNPCSUp, -1, int32(t.ID()), int32(nv))
	if nv == 1 {
		mo.SpinToBlockSwitches++
		mo.m.KernelLockEvent(sim.TracePolicySwitch, -1, int32(t.ID()), 1)
	}
	mo.InCSPreemptions++
}

// recheckPending re-classifies preempted threads left in a recheck
// window: one of them may have been handed the MCS lock while off-CPU.
// A thread is promoted only while it still classifies from a recheck
// window; a thread whose switch-in the handler never saw (a dropped or
// delayed event) may have run on into another window since.
func (mo *Monitor) recheckPending() {
	if len(mo.pending) == 0 {
		return
	}
	kept := mo.pending[:0]
	for _, t := range mo.pending {
		if t.State() == sim.StateDone || t.MonitorMark {
			continue
		}
		if in, w, recheck := mo.classify(t); in && recheck {
			mo.mark(t, w)
			continue
		}
		kept = append(kept, t)
	}
	mo.pending = kept
}

// unpend drops a rescheduled thread from the re-examination list.
func (mo *Monitor) unpend(t *sim.Thread) {
	for i, p := range mo.pending {
		if p == t {
			mo.pending = append(mo.pending[:i], mo.pending[i+1:]...)
			return
		}
	}
}

// counterFor returns the counter a thread's mark was charged to.
func (mo *Monitor) counterFor(t *sim.Thread) *sim.Word {
	if w, ok := mo.chargedTo[t]; ok {
		delete(mo.chargedTo, t)
		return w
	}
	return mo.global
}

// resolve maps a classifier-provided counter to the effective one.
func (mo *Monitor) resolve(counter *sim.Word) *sim.Word {
	if mo.perLock && counter != nil {
		return counter
	}
	return mo.global
}
