// Package fault is the fault-injection subsystem: composable,
// deterministic Plans that perturb the simulation the way a hostile
// kernel scheduler or a degraded eBPF monitor would — timeslice jitter,
// forced preemption targeted at the Listing-2/3 instruction windows,
// futex wake delay and spurious wakes, and monitor degradation (delayed
// / dropped / detached / stuck NPCS updates). Everything draws from a
// seeded RNG, so a plan + seed is a complete reproducer; Shrink reduces
// a failing plan to a minimal one.
//
// The package also ships deliberately broken lock mutants (mutants.go)
// used to prove the invariant checker can actually fail.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Plan describes one composition of faults. The zero value is the
// benign plan (no perturbation). All probabilities are per-decision;
// all randomness is drawn from the injector's seeded stream, so runs
// are deterministic per (plan, seed).
type Plan struct {
	// SliceJitterPct perturbs every granted timeslice by a uniform
	// factor in [1-p, 1+p] — scheduler tick noise.
	SliceJitterPct float64
	// PreemptAnyProb forces an involuntary switch at any instruction
	// boundary with this probability — a generally adversarial
	// scheduler.
	PreemptAnyProb float64
	// PreemptWindowProb applies at boundaries where the thread is
	// inside a lock-function label window (Thread.Region != 0): the
	// Listing-2/3 windows the monitor's classifiers must catch.
	PreemptWindowProb float64
	// PreemptCSProb applies at boundaries where the thread holds a lock
	// (cs_counter > 0): manufactured critical-section preemptions.
	PreemptCSProb float64
	// WakeDelay stretches every futex wake path by this many ticks.
	WakeDelay sim.Time
	// SpuriousWakeProb spuriously wakes a just-parked futex waiter
	// (wait returns as if interrupted) with this probability, after
	// SpuriousWakeAfter ticks (default 10000 when zero).
	SpuriousWakeProb  float64
	SpuriousWakeAfter sim.Time

	// Monitor degradation (see monitor.Degradation).
	NPCSDelay      int     // NPCS updates delayed by k sched switches
	DropSwitchProb float64 // fraction of sched_switch events dropped
	DetachAfter    int64   // monitor detaches after this many switches
	StuckEnabled   bool    // pin NPCS to StuckNPCS
	StuckNPCS      uint64

	// Crash faults: thread kills at concurrency points (Machine.Kill).
	// A crashed thread's shared words stay frozen mid-protocol, so these
	// plans exercise the robust-recovery paths. CrashMax bounds the total
	// kills per run (0 means 1 when any crash probability is set);
	// values above 1 are multi-crash storms.
	CrashHoldProb    float64  // crash at a boundary while holding a lock
	CrashWindowProb  float64  // crash inside a lock label window (the Listing-2/3 handover windows)
	CrashQueueProb   float64  // crash at a boundary while waiting (spinning/enqueued) for a lock
	CrashParkedProb  float64  // crash a waiter just parked on a futex
	CrashParkedAfter sim.Time // delay before a parked crash fires (default 5000 when zero)
	CrashMax         int      // kill budget per run
}

// IsZero reports whether the plan perturbs nothing.
func (p Plan) IsZero() bool { return p == Plan{} }

// PerturbsSim reports whether the plan needs a sim.FaultInjector.
func (p Plan) PerturbsSim() bool {
	return p.SliceJitterPct > 0 || p.PreemptAnyProb > 0 || p.PreemptWindowProb > 0 ||
		p.PreemptCSProb > 0 || p.WakeDelay > 0 || p.SpuriousWakeProb > 0 || p.Crashes()
}

// Crashes reports whether the plan kills threads (arms the crash seams).
func (p Plan) Crashes() bool {
	return p.CrashHoldProb > 0 || p.CrashWindowProb > 0 || p.CrashQueueProb > 0 ||
		p.CrashParkedProb > 0
}

// DegradesMonitor reports whether the plan degrades the Preemption
// Monitor (and therefore warrants arming its health check).
func (p Plan) DegradesMonitor() bool {
	return p.NPCSDelay > 0 || p.DropSwitchProb > 0 || p.DetachAfter > 0 || p.StuckEnabled
}

// String renders the plan as its one-line replay spec: "none" for the
// zero plan, otherwise comma-separated key=value pairs in fixed order.
// ParsePlan inverts it.
func (p Plan) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if p.SliceJitterPct > 0 {
		add("jitter", f(p.SliceJitterPct))
	}
	if p.PreemptAnyProb > 0 {
		add("preempt-any", f(p.PreemptAnyProb))
	}
	if p.PreemptWindowProb > 0 {
		add("preempt-window", f(p.PreemptWindowProb))
	}
	if p.PreemptCSProb > 0 {
		add("preempt-cs", f(p.PreemptCSProb))
	}
	if p.WakeDelay > 0 {
		add("wake-delay", strconv.FormatInt(int64(p.WakeDelay), 10))
	}
	if p.SpuriousWakeProb > 0 {
		add("spurious", f(p.SpuriousWakeProb))
	}
	if p.SpuriousWakeAfter > 0 {
		add("spurious-after", strconv.FormatInt(int64(p.SpuriousWakeAfter), 10))
	}
	if p.NPCSDelay > 0 {
		add("npcs-delay", strconv.Itoa(p.NPCSDelay))
	}
	if p.DropSwitchProb > 0 {
		add("drop", f(p.DropSwitchProb))
	}
	if p.DetachAfter > 0 {
		add("detach", strconv.FormatInt(p.DetachAfter, 10))
	}
	if p.StuckEnabled {
		add("stuck", strconv.FormatUint(p.StuckNPCS, 10))
	}
	if p.CrashHoldProb > 0 {
		add("crash-hold", f(p.CrashHoldProb))
	}
	if p.CrashWindowProb > 0 {
		add("crash-window", f(p.CrashWindowProb))
	}
	if p.CrashQueueProb > 0 {
		add("crash-queue", f(p.CrashQueueProb))
	}
	if p.CrashParkedProb > 0 {
		add("crash-parked", f(p.CrashParkedProb))
	}
	if p.CrashParkedAfter > 0 {
		add("crash-parked-after", strconv.FormatInt(int64(p.CrashParkedAfter), 10))
	}
	if p.CrashMax > 0 {
		add("crash-max", strconv.Itoa(p.CrashMax))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the String() format (a preset name is also accepted).
// Every probability, and the jitter fraction, must lie in [0, 1]; every
// tick count and budget must be non-negative. An out-of-range value is
// an error naming its key, never a plan that silently perturbs less.
func ParsePlan(s string) (Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return Plan{}, nil
	}
	if p, ok := PlanByName(s); ok {
		return p, nil
	}
	var p Plan
	for _, kv := range strings.Split(s, ",") {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return Plan{}, fmt.Errorf("fault: bad plan term %q (want key=value)", kv)
		}
		pf := func() (float64, error) {
			x, err := strconv.ParseFloat(v, 64)
			if err == nil && !(x >= 0 && x <= 1) { // NaN fails both comparisons
				err = fmt.Errorf("%v is outside [0, 1]", x)
			}
			return x, err
		}
		pi := func() (int64, error) {
			n, err := strconv.ParseInt(v, 10, 64)
			if err == nil && n < 0 {
				err = fmt.Errorf("%d is negative", n)
			}
			return n, err
		}
		var err error
		switch k {
		case "jitter":
			p.SliceJitterPct, err = pf()
		case "preempt-any":
			p.PreemptAnyProb, err = pf()
		case "preempt-window":
			p.PreemptWindowProb, err = pf()
		case "preempt-cs":
			p.PreemptCSProb, err = pf()
		case "wake-delay":
			var n int64
			n, err = pi()
			p.WakeDelay = sim.Time(n)
		case "spurious":
			p.SpuriousWakeProb, err = pf()
		case "spurious-after":
			var n int64
			n, err = pi()
			p.SpuriousWakeAfter = sim.Time(n)
		case "npcs-delay":
			var n int64
			n, err = pi()
			p.NPCSDelay = int(n)
		case "drop":
			p.DropSwitchProb, err = pf()
		case "detach":
			p.DetachAfter, err = pi()
		case "stuck":
			var n uint64
			n, err = strconv.ParseUint(v, 10, 64)
			p.StuckEnabled = true
			p.StuckNPCS = n
		case "crash-hold":
			p.CrashHoldProb, err = pf()
		case "crash-window":
			p.CrashWindowProb, err = pf()
		case "crash-queue":
			p.CrashQueueProb, err = pf()
		case "crash-parked":
			p.CrashParkedProb, err = pf()
		case "crash-parked-after":
			var n int64
			n, err = pi()
			p.CrashParkedAfter = sim.Time(n)
		case "crash-max":
			var n int64
			n, err = pi()
			p.CrashMax = int(n)
		default:
			return Plan{}, fmt.Errorf("fault: unknown plan key %q", k)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fault: bad value for %q: %v", k, err)
		}
	}
	return p, nil
}

// NamedPlan is a preset plan in the campaign registry.
type NamedPlan struct {
	Name string
	Plan Plan
	Doc  string
}

// Plans returns the preset campaign, in sweep order.
func Plans() []NamedPlan {
	return []NamedPlan{
		{"none", Plan{}, "benign baseline"},
		{"slice-jitter", Plan{SliceJitterPct: 0.5}, "timeslices vary ±50%"},
		{"preempt-any", Plan{PreemptAnyProb: 0.01}, "random forced preemption at instruction boundaries"},
		{"preempt-window", Plan{PreemptWindowProb: 0.10, PreemptCSProb: 0.05},
			"preemption aimed at lock label windows and held critical sections"},
		{"wake-storm", Plan{WakeDelay: 20_000, SpuriousWakeProb: 0.25},
			"slow futex wake path plus spurious wakeups"},
		{"degraded-delay", Plan{NPCSDelay: 8}, "NPCS updates trail reality by 8 switches"},
		{"degraded-drop", Plan{DropSwitchProb: 0.5}, "half the sched_switch events are lost"},
		{"degraded-detach", Plan{DetachAfter: 200}, "monitor detaches after 200 switches"},
		{"degraded-stuck", Plan{StuckEnabled: true, StuckNPCS: 1}, "NPCS wedged nonzero: spin mode looks forbidden forever"},
		{"degraded-stuck0", Plan{StuckEnabled: true, StuckNPCS: 0}, "NPCS wedged at zero: preemptions become invisible"},
		{"chaos", Plan{SliceJitterPct: 0.3, PreemptAnyProb: 0.005, PreemptCSProb: 0.05,
			WakeDelay: 5_000, SpuriousWakeProb: 0.1, DropSwitchProb: 0.25},
			"everything at once"},
	}
}

// CrashPlans returns the crash-campaign presets, in sweep order. They
// are kept out of Plans() deliberately: the default sweep requires zero
// violations, while crash cells legitimately end in orphaned-lock
// verdicts — faultbench -crash applies the crash-aware classification.
func CrashPlans() []NamedPlan {
	return []NamedPlan{
		{"crash-hold", Plan{CrashHoldProb: 1}, "kill the holder at its first in-CS boundary"},
		{"crash-queue", Plan{CrashQueueProb: 0.2}, "kill a waiter while spinning/enqueued on a lock"},
		{"crash-parked", Plan{CrashParkedProb: 0.5}, "kill a waiter parked on the futex"},
		{"crash-handover", Plan{CrashWindowProb: 0.3}, "kill inside lock label windows (the Listing-2/3 handover windows)"},
		{"crash-storm", Plan{CrashHoldProb: 0.05, CrashQueueProb: 0.05, CrashParkedProb: 0.2, CrashMax: 3},
			"multiple crashes across holder/waiter/parked roles"},
	}
}

// DegradedPlans returns the monitor-degradation subset of the presets.
func DegradedPlans() []NamedPlan {
	var out []NamedPlan
	for _, np := range Plans() {
		if np.Plan.DegradesMonitor() {
			out = append(out, np)
		}
	}
	return out
}

// PlanByName resolves a preset (campaign presets and crash presets).
func PlanByName(name string) (Plan, bool) {
	for _, np := range Plans() {
		if np.Name == name {
			return np.Plan, true
		}
	}
	for _, np := range CrashPlans() {
		if np.Name == name {
			return np.Plan, true
		}
	}
	return Plan{}, false
}

// FromBits derives a bounded plan from 64 fuzz-provided bits — the
// bridge from go's native fuzzing (which mutates scalars) to the plan
// space. Magnitudes are capped so every derived plan terminates in
// bounded wall-clock time.
func FromBits(bits uint64) Plan {
	take := func(n uint) uint64 {
		v := bits & (1<<n - 1)
		bits >>= n
		return v
	}
	var p Plan
	p.SliceJitterPct = float64(take(3)) / 8   // 0 .. 0.875
	p.PreemptAnyProb = float64(take(3)) / 256 // 0 .. 0.027
	p.PreemptWindowProb = float64(take(3)) / 16
	p.PreemptCSProb = float64(take(3)) / 32
	p.WakeDelay = sim.Time(take(4)) * 2_000 // 0 .. 30k ticks
	p.SpuriousWakeProb = float64(take(3)) / 16
	p.NPCSDelay = int(take(3))
	p.DropSwitchProb = float64(take(3)) / 16
	if take(1) == 1 {
		p.DetachAfter = int64(take(5)+1) * 50
	} else {
		take(5)
	}
	if take(1) == 1 {
		p.StuckEnabled = true
		p.StuckNPCS = take(1)
	}
	return p
}

// Shrink reduces a failing plan to a minimal one that still fails:
// repeatedly try dropping each fault entirely, then halving each
// magnitude, until a fixpoint (delta debugging over the plan's fields).
// fails must be a deterministic predicate — in practice "re-run the
// fuzz config with this candidate plan and check for violations".
// Horizon/thread shrinking is the caller's job (harness.ShrinkFailure),
// since those live outside the plan.
func Shrink(p Plan, fails func(Plan) bool) Plan {
	for round := 0; round < 16; round++ {
		improved := false
		for _, cand := range reductions(p) {
			if fails(cand) {
				p = cand
				improved = true
				break // restart reduction from the smaller plan
			}
		}
		if !improved {
			return p
		}
	}
	return p
}

// reductions proposes strictly smaller candidate plans, most aggressive
// first (drop a whole fault before halving it).
func reductions(p Plan) []Plan {
	var out []Plan
	add := func(c Plan) {
		if c != p {
			out = append(out, c)
		}
	}
	// Drop each fault entirely.
	for _, zero := range []func(*Plan){
		func(c *Plan) { c.SliceJitterPct = 0 },
		func(c *Plan) { c.PreemptAnyProb = 0 },
		func(c *Plan) { c.PreemptWindowProb = 0 },
		func(c *Plan) { c.PreemptCSProb = 0 },
		func(c *Plan) { c.WakeDelay = 0 },
		func(c *Plan) { c.SpuriousWakeProb = 0; c.SpuriousWakeAfter = 0 },
		func(c *Plan) { c.NPCSDelay = 0 },
		func(c *Plan) { c.DropSwitchProb = 0 },
		func(c *Plan) { c.DetachAfter = 0 },
		func(c *Plan) { c.StuckEnabled = false; c.StuckNPCS = 0 },
		func(c *Plan) { c.CrashHoldProb = 0 },
		func(c *Plan) { c.CrashWindowProb = 0 },
		func(c *Plan) { c.CrashQueueProb = 0 },
		func(c *Plan) { c.CrashParkedProb = 0; c.CrashParkedAfter = 0 },
		func(c *Plan) { c.CrashMax = 0 }, // back to the single-kill default budget
	} {
		c := p
		zero(&c)
		add(c)
	}
	// Halve each magnitude.
	c := p
	c.SliceJitterPct = trimF(p.SliceJitterPct)
	add(c)
	c = p
	c.PreemptAnyProb = trimF(p.PreemptAnyProb)
	add(c)
	c = p
	c.PreemptWindowProb = trimF(p.PreemptWindowProb)
	add(c)
	c = p
	c.PreemptCSProb = trimF(p.PreemptCSProb)
	add(c)
	c = p
	c.WakeDelay = p.WakeDelay / 2
	add(c)
	c = p
	c.SpuriousWakeProb = trimF(p.SpuriousWakeProb)
	add(c)
	c = p
	c.NPCSDelay = p.NPCSDelay / 2
	add(c)
	c = p
	c.DropSwitchProb = trimF(p.DropSwitchProb)
	add(c)
	c = p
	c.DetachAfter = p.DetachAfter / 2
	add(c)
	c = p
	c.CrashHoldProb = trimF(p.CrashHoldProb)
	add(c)
	c = p
	c.CrashWindowProb = trimF(p.CrashWindowProb)
	add(c)
	c = p
	c.CrashQueueProb = trimF(p.CrashQueueProb)
	add(c)
	c = p
	c.CrashParkedProb = trimF(p.CrashParkedProb)
	add(c)
	c = p
	if p.CrashMax > 1 {
		c.CrashMax = p.CrashMax / 2
		add(c)
	}
	return out
}

// trimF halves a probability/fraction, flooring tiny values to zero so
// shrinking terminates at the drop step instead of asymptoting.
func trimF(v float64) float64 {
	v /= 2
	if v < 1e-3 {
		return 0
	}
	return v
}
