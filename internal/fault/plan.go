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
	"slices"
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
	NPCSDelay      int64   // NPCS updates delayed by k sched switches
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
	CrashMax         int64    // kill budget per run
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

// planKey is one key of the plan grammar. String renders the keys in
// planKeys order, ParsePlan looks them up there, and Shrink's reductions
// drop and halve them from it, so a new key is one row.
type planKey struct {
	name string
	// The field the key sets: a probability or fraction in [0, 1], or a
	// non-negative tick count or budget. The stuck row has neither: it
	// sets StuckEnabled and StuckNPCS, see format, parse, clear and halve.
	prob  func(*Plan) *float64
	count func(*Plan) *int64
	// of names the key this one qualifies. Dropping that key drops this
	// one too; a qualifier is never dropped or halved on its own.
	of string
}

var planKeys = []planKey{
	{name: "jitter", prob: func(p *Plan) *float64 { return &p.SliceJitterPct }},
	{name: "preempt-any", prob: func(p *Plan) *float64 { return &p.PreemptAnyProb }},
	{name: "preempt-window", prob: func(p *Plan) *float64 { return &p.PreemptWindowProb }},
	{name: "preempt-cs", prob: func(p *Plan) *float64 { return &p.PreemptCSProb }},
	{name: "wake-delay", count: func(p *Plan) *int64 { return &p.WakeDelay }},
	{name: "spurious", prob: func(p *Plan) *float64 { return &p.SpuriousWakeProb }},
	{name: "spurious-after", count: func(p *Plan) *int64 { return &p.SpuriousWakeAfter }, of: "spurious"},
	{name: "npcs-delay", count: func(p *Plan) *int64 { return &p.NPCSDelay }},
	{name: "drop", prob: func(p *Plan) *float64 { return &p.DropSwitchProb }},
	{name: "detach", count: func(p *Plan) *int64 { return &p.DetachAfter }},
	{name: "stuck"},
	{name: "crash-hold", prob: func(p *Plan) *float64 { return &p.CrashHoldProb }},
	{name: "crash-window", prob: func(p *Plan) *float64 { return &p.CrashWindowProb }},
	{name: "crash-queue", prob: func(p *Plan) *float64 { return &p.CrashQueueProb }},
	{name: "crash-parked", prob: func(p *Plan) *float64 { return &p.CrashParkedProb }},
	{name: "crash-parked-after", count: func(p *Plan) *int64 { return &p.CrashParkedAfter }, of: "crash-parked"},
	// Dropping crash-max restores the single-kill default budget.
	{name: "crash-max", count: func(p *Plan) *int64 { return &p.CrashMax }},
}

// format renders k's value in p, or "" when p leaves k unset.
func (k planKey) format(p *Plan) string {
	switch {
	case k.prob != nil:
		if x := *k.prob(p); x > 0 {
			return strconv.FormatFloat(x, 'g', -1, 64)
		}
	case k.count != nil:
		if n := *k.count(p); n > 0 {
			return strconv.FormatInt(n, 10)
		}
	default: // stuck
		if p.StuckEnabled {
			return strconv.FormatUint(p.StuckNPCS, 10)
		}
	}
	return ""
}

// parse sets k's field in p from v, rejecting a value outside its range.
func (k planKey) parse(p *Plan, v string) error {
	switch {
	case k.prob != nil:
		x, err := strconv.ParseFloat(v, 64)
		if err == nil && !(x >= 0 && x <= 1) { // NaN fails both comparisons
			err = fmt.Errorf("%v is outside [0, 1]", x)
		}
		*k.prob(p) = x
		return err
	case k.count != nil:
		n, err := strconv.ParseInt(v, 10, 64)
		if err == nil && n < 0 {
			err = fmt.Errorf("%d is negative", n)
		}
		*k.count(p) = n
		return err
	}
	n, err := strconv.ParseUint(v, 10, 64)
	p.StuckEnabled, p.StuckNPCS = true, n
	return err
}

// clear unsets k in p.
func (k planKey) clear(p *Plan) {
	switch {
	case k.prob != nil:
		*k.prob(p) = 0
	case k.count != nil:
		*k.count(p) = 0
	default:
		p.StuckEnabled, p.StuckNPCS = false, 0
	}
}

// halve halves k's magnitude in p, reporting false for stuck, which has
// none.
func (k planKey) halve(p *Plan) bool {
	switch {
	case k.prob != nil:
		*k.prob(p) = trimF(*k.prob(p))
	case k.count != nil:
		*k.count(p) /= 2
	default:
		return false
	}
	return true
}

// String renders the plan as its one-line replay spec: "none" for the
// zero plan, otherwise comma-separated key=value pairs in planKeys
// order. ParsePlan inverts it.
func (p Plan) String() string {
	var parts []string
	for _, k := range planKeys {
		if v := k.format(&p); v != "" {
			parts = append(parts, k.name+"="+v)
		}
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
		i := slices.IndexFunc(planKeys, func(pk planKey) bool { return pk.name == k })
		if i < 0 {
			return Plan{}, fmt.Errorf("fault: unknown plan key %q", k)
		}
		if err := planKeys[i].parse(&p, v); err != nil {
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
	p.NPCSDelay = int64(take(3))
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
// first: drop each key with the keys that qualify it, then halve each
// magnitude. A candidate equal to an earlier one is skipped.
func reductions(p Plan) []Plan {
	var out []Plan
	add := func(c Plan) {
		if c != p && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	for _, k := range planKeys {
		if k.of != "" {
			continue
		}
		c := p
		for _, q := range planKeys {
			if q.name == k.name || q.of == k.name {
				q.clear(&c)
			}
		}
		add(c)
	}
	for _, k := range planKeys {
		if c := p; k.of == "" && k.halve(&c) {
			add(c)
		}
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
