package harness

import (
	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The open-loop fuzz path: the traffic engine under the fault and
// crash plans, with the full invariant checker attached. The property
// under test is the one the PR 6 sampler bug taught us to state
// explicitly: an active event source on the machine's queue must never
// keep a wedged run formally alive. The engine's stall watchdog stops
// generation when nothing completes, so a deadlock drains and verdicts
// fire; this entry point is how the test suite and CI exercise that
// under schedule chaos and thread crashes.

// OpenLoopFuzzCfg describes one open-loop fuzz cell.
type OpenLoopFuzzCfg struct {
	Alg     string // lock algorithm ("" = flexguard)
	Pattern string // arrival pattern ("" = poisson)
	Seed    uint64
	Plan    fault.Plan
	CPUs    int     // 0 = 4
	RateMs  float64 // 0 = 2× nominal per-core capacity (oversaturated)
	Horizon sim.Time
	Check   check.Options
}

// OpenLoopFuzzResult is the outcome of one open-loop fuzz cell.
type OpenLoopFuzzResult struct {
	Violations   []check.Violation
	Deadlocked   bool
	DeadlockDump string
	// HitGrace reports the machine was still active at the grace
	// horizon — with the stall watchdog in place this should never
	// happen, so the fuzz tests treat it as a failure.
	HitGrace bool
	Quiesced sim.Time
	Grace    sim.Time
	Stalled  bool
	Crashes  int64
	Stats    traffic.Stats
	Registry *obs.Registry
}

// Failed reports whether any invariant was violated.
func (r OpenLoopFuzzResult) Failed() bool { return len(r.Violations) > 0 }

// FuzzOpenLoop runs one open-loop cell under a fault plan and the
// invariant checker. Fully deterministic in the config contents.
func FuzzOpenLoop(c OpenLoopFuzzCfg) (OpenLoopFuzzResult, error) {
	alg := c.Alg
	if alg == "" {
		alg = "flexguard"
	}
	pattern := c.Pattern
	if pattern == "" {
		pattern = "poisson"
	}
	cpus := c.CPUs
	if cpus <= 0 {
		cpus = 4
	}
	horizon := c.Horizon
	if horizon == 0 {
		horizon = 4_000_000
	}
	rate := c.RateMs
	if rate <= 0 {
		// ~10 µs mean service → ≈100 req/ms/core; 2× oversaturates.
		rate = 200 * float64(cpus)
	}

	cfg := withHeadroom(sim.Small(cpus), 4*cpus+80)
	cfg.Seed = defaultSeed(c.Seed)
	var eng *traffic.Engine
	work, err := trafficWork(pattern, rate, cfg.Seed, traffic.Options{
		// A shallow queue bounds the post-deadline drain (the backlog a
		// fuzz cell may carry past the horizon is QueueCap×ServiceMean/
		// cores), keeping a healthy slowed-down run comfortably inside
		// grace so HitGrace stays a pure masking signal.
		QueueCap: 128,
		// Keep the watchdog inside the grace window even when a fault
		// plan slows everything down.
		StallBound: horizon / 2,
	}, &eng)
	if err != nil {
		return OpenLoopFuzzResult{}, err
	}
	grace := horizon * 3
	if !c.Plan.IsZero() {
		grace += horizon + 4*c.Plan.WakeDelay + 400_000
	}
	co := fuzzCheck(c.Check, horizon)
	out, err := stages{
		env:   newEnv(EnvOptions{Config: cfg, Alg: alg}),
		check: co, plan: c.Plan, work: work,
		// Any thread parked at the drain is a deadlock.
		deadline: horizon, horizon: grace, hangBefore: grace + 1,
	}.run()
	if err != nil {
		return OpenLoopFuzzResult{}, err
	}
	st := eng.Stats()
	return OpenLoopFuzzResult{
		// Conservation is the engine-level mutual-exclusion witness: it
		// must hold through crashes (killed workers resolve as Lost).
		Violations: out.verdicts("open-loop conservation: %v"),
		Deadlocked: out.deadlocked, DeadlockDump: out.dump,
		HitGrace: out.q >= grace, Quiesced: out.q, Grace: grace,
		Stalled: st.Stalled, Crashes: out.crashes, Stats: st, Registry: co.Registry,
	}, nil
}
