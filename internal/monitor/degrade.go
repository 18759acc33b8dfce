package monitor

import (
	"repro/internal/dist"
	"repro/internal/sim"
)

// Degradation models the failure modes a real eBPF-based monitor has and
// the paper's validation never exercises: the tracepoint keeps firing,
// but the handler's view of it decays. All fields compose; randomness is
// drawn from Rand so a degraded run stays deterministic per seed.
type Degradation struct {
	// DelaySwitches delivers every sched_switch event to the handler k
	// events late (a lagging ring-buffer consumer): NPCS updates trail
	// reality by k switches.
	DelaySwitches int
	// DropProb drops each event with this probability (ring-buffer
	// overrun discarding samples).
	DropProb float64
	// DetachAfter stops processing entirely after this many observed
	// events (program detached mid-run); 0 = never.
	DetachAfter int64
	// StuckEnabled pins the NPCS counter to StuckNPCS after every switch
	// (a wedged map entry). Stuck at nonzero makes spin-mode lockers
	// block forever on a lie; stuck at zero makes them spin through
	// preempted critical sections.
	StuckEnabled bool
	StuckNPCS    uint64
	// Rand drives DropProb; required when DropProb > 0.
	Rand *dist.Rand
}

type switchRec struct {
	prev, next *sim.Thread
}

// healthState is the self-check a production deployment would run beside
// the monitor: userspace can observe how far the handler lags the raw
// tracepoint and whether the counter still moves.
type healthState struct {
	enabled        bool
	lagThreshold   int64 // max tolerated HookSeen-Processed gap
	stuckThreshold int64 // switches with NPCS nonzero and unchanged
	lastNPCS       uint64
	stuckFor       int64
}

// Degrade activates (or with nil, clears) a degradation mode. Call
// before Run; the mode applies from the next sched_switch on.
func (mo *Monitor) Degrade(d *Degradation) { mo.deg = d }

// StaleWord returns the health flag word lock algorithms read alongside
// NPCS: nonzero means the monitor's signal can no longer be trusted and
// spin-mode decisions must not rely on it.
func (mo *Monitor) StaleWord() *sim.Word { return mo.stale }

// EnableHealthCheck arms the monitor self-check. lag is the maximum
// tolerated gap between tracepoint firings and processed events; stuck
// is how many consecutive switches NPCS may sit nonzero and unchanged
// before being declared wedged. Zero selects the defaults (64 / 512).
// The check is off by default so healthy runs are byte-identical to
// pre-health builds.
func (mo *Monitor) EnableHealthCheck(lag, stuck int64) {
	if lag <= 0 {
		lag = 64
	}
	if stuck <= 0 {
		stuck = 512
	}
	mo.health = healthState{enabled: true, lagThreshold: lag, stuckThreshold: stuck}
}

// markStale raises the stale flag (idempotent). reason is one of the
// sim.Stale* codes carried on the TraceMonitorStale event.
func (mo *Monitor) markStale(reason int32) {
	if mo.stale.V() != 0 {
		return
	}
	mo.m.KernelStore(mo.stale, 1)
	mo.m.KernelLockEvent(sim.TraceMonitorStale, -1, -1, reason)
}

// schedSwitch is the registered tracepoint hook: it counts the raw
// firing, routes the event through the active degradation mode, then
// runs the health check.
func (mo *Monitor) schedSwitch(prev, next *sim.Thread) {
	mo.HookSeen++
	d := mo.deg
	switch {
	case d == nil:
		mo.Processed++
		mo.process(prev, next)
	case d.DetachAfter > 0 && mo.HookSeen > d.DetachAfter:
		// Detached: the tracepoint fires into the void.
	case d.DropProb > 0 && d.Rand != nil && d.Rand.Float64() < d.DropProb:
		// Overrun: this sample is lost.
	case d.DelaySwitches > 0:
		mo.delayQ = append(mo.delayQ, switchRec{prev, next})
		if len(mo.delayQ) > d.DelaySwitches {
			r := mo.delayQ[0]
			mo.delayQ = mo.delayQ[:copy(mo.delayQ, mo.delayQ[1:])]
			mo.Processed++
			mo.process(r.prev, r.next)
		}
	default:
		mo.Processed++
		mo.process(prev, next)
	}
	if d != nil && d.StuckEnabled && mo.global.V() != d.StuckNPCS {
		mo.m.KernelStore(mo.global, d.StuckNPCS)
	}
	mo.healthTick()
}

// healthTick runs the self-check after each raw tracepoint firing.
func (mo *Monitor) healthTick() {
	h := &mo.health
	if !h.enabled || mo.stale.V() != 0 {
		return
	}
	if mo.HookSeen-mo.Processed > h.lagThreshold {
		mo.markStale(sim.StaleEventLoss)
		return
	}
	v := mo.global.V()
	if v != 0 && v == h.lastNPCS {
		h.stuckFor++
		if h.stuckFor > h.stuckThreshold {
			mo.markStale(sim.StaleCounterStuck)
		}
		return
	}
	h.stuckFor = 0
	h.lastNPCS = v
}
