package harness

// The schedule fuzzer: one entry point (Fuzz) that runs the sharedmem
// microbenchmark for an (algorithm × fault plan × seed) triple under
// the full invariant checker, plus the shrinking machinery that turns a
// failing triple into a minimal one-line replay spec. Both the test
// suite (fuzz_test.go, mutation_test.go) and cmd/faultbench drive runs
// through here, so a spec printed by either reproduces in the other.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/obs/timeseries"
	"repro/internal/sim"
)

// FuzzCfg describes one fuzz run. Zero CPUs/Threads/Horizon are derived
// deterministically from the seed (the classic fuzz shape); explicit
// values pin them — replay specs always pin all three.
type FuzzCfg struct {
	Alg     string // a Lookup name ("" = flexguard)
	Seed    uint64
	Plan    fault.Plan
	Mutant  string // a fault.Mutants() name; "" runs the stock Alg
	CPUs    int
	Threads int
	Horizon sim.Time
	// Races attaches the race auditor (check.AttachRace) alongside the
	// invariant checker; verdicts land in FuzzResult.Races.
	Races bool
	// Window attaches the flight recorder (series in FuzzResult.Series).
	// Observational only — not part of the replay grammar, and runs are
	// byte-identical with or without it.
	Window sim.Time
}

// FuzzResult is the outcome of one fuzz run.
type FuzzResult struct {
	Violations   []check.Violation
	Deadlocked   bool
	DeadlockDump string
	// HitGrace reports the run was still active at the grace horizon
	// (possible livelock; stalled-waiter violations give the specifics).
	HitGrace bool
	Quiesced sim.Time
	Grace    sim.Time
	// The shape actually used (derived or pinned).
	CPUs    int
	Threads int
	Horizon sim.Time
	Ops     int64
	// Crashes counts the threads the plan killed; Abandoned counts the
	// dead waiters lock-side repair unlinked from queues.
	Crashes   int64
	Abandoned int64
	// Races holds the race auditor's verdicts (FuzzCfg.Races only);
	// RaceTotal counts them beyond the storage cap.
	Races     []check.Race
	RaceTotal int64
	// Series is the flight-recorder recording (FuzzCfg.Window only).
	Series *timeseries.Series
	// TraceDigest/TraceEvents fingerprint the run's full event stream,
	// fault decisions and checker verdicts included. The digest tracer
	// is passive, so every run carries it.
	TraceDigest uint64
	TraceEvents int64
}

// Failed reports whether any invariant was violated.
func (r FuzzResult) Failed() bool { return len(r.Violations) > 0 }

// Fuzz runs one configuration and checks every invariant. The run is
// fully deterministic in (cfg contents): same inputs, same outcome.
func Fuzz(c FuzzCfg) (FuzzResult, error) {
	alg := c.Alg
	if alg == "" {
		alg = "flexguard"
	}
	if c.Mutant != "" {
		mu, ok := fault.MutantByName(c.Mutant)
		if !ok {
			return FuzzResult{}, fmt.Errorf("harness: unknown mutant %q (have %v)", c.Mutant, Names(Mutant))
		}
		alg = mu.Name // the mutant's catalog row picks its machine
		if c.Plan.IsZero() {
			// The registry's provoking plan makes the bug deterministic;
			// replaying "plan=none mutant=X" re-applies it the same way.
			c.Plan = mu.Plan
		}
	} else if _, err := Lookup(alg); err != nil {
		return FuzzResult{}, err
	}

	// Shape derivation: same draws in the same order as the original
	// fuzz sweep, so historical failure seeds stay meaningful. Pinned
	// values override after the draws.
	rng := dist.NewRand(c.Seed)
	cpus := 2 + rng.Intn(6)
	timeslice := sim.Time(10_000 + rng.Intn(90_000))
	sliceExt := sim.Time(0)
	if rng.Intn(2) == 0 {
		sliceExt = sim.Time(2_000 + rng.Intn(10_000))
	}
	threads := 1 + rng.Intn(4*cpus)
	horizon := sim.Time(3_000_000 + rng.Intn(5_000_000))
	if c.CPUs > 0 {
		cpus = c.CPUs
	}
	if c.Threads > 0 {
		threads = c.Threads
	}
	if c.Mutant != "" && threads < 2 {
		threads = 2 // a mutant needs contention to misbehave
	}
	if c.Horizon > 0 {
		horizon = c.Horizon
	}

	cfg := withHeadroom(sim.Small(cpus), threads+8)
	cfg.Seed = c.Seed
	cfg.Costs.Timeslice = timeslice
	cfg.Costs.MinSlice = timeslice / 10
	cfg.Costs.SliceExt = sliceExt

	// Grace: how long past the horizon the machine may take to drain.
	// u-SCL drains slowly by design; fault plans (wake delays, forced
	// preemptions, all-blocking mode) slow the drain further.
	grace := horizon * 3
	if alg == "uscl" {
		grace += sim.Time(threads) * 1_000_000
	}
	if !c.Plan.IsZero() {
		grace += horizon + sim.Time(threads)*(4*c.Plan.WakeDelay+100_000)
	}

	out, err := stages{
		env:   EnvOptions{Config: cfg, Alg: alg},
		check: fuzzCheck(horizon), races: c.Races, plan: c.Plan, trace: true, window: c.Window,
		work: sharedmemWork(0), threads: threads,
		// Any thread parked at the drain is a deadlock.
		deadline: horizon, horizon: grace, hangBefore: grace + 1,
	}.run()
	if err != nil {
		return FuzzResult{}, err
	}
	res := FuzzResult{
		Violations: out.verdicts("%v"), Deadlocked: out.deadlocked, DeadlockDump: out.dump,
		Quiesced: out.q, Grace: grace, HitGrace: out.q >= grace,
		CPUs: cpus, Threads: threads, Horizon: horizon,
		Crashes: out.crashes, Abandoned: out.e.Shared.Abandons,
		Races: out.races, RaceTotal: out.raceTotal, Series: out.series,
		TraceDigest: out.digest, TraceEvents: out.events,
	}
	for _, th := range out.e.M.Threads() {
		res.Ops += th.Ops
	}
	return res, nil
}

// fuzzCheck is the fuzz paths' checker: verdicts emitted into the
// trace, and a stall bound short horizons can trip.
func fuzzCheck(horizon sim.Time) *check.Options {
	co := check.Options{EmitEvents: true}
	if horizon/2 < 1_000_000 {
		// Short horizons need a proportionally shorter stall bound or
		// end-of-run stall checks can never trip.
		co.StallBound = horizon / 2
	}
	return &co
}

// Replay renders the config as a one-line replay spec, parsable by
// ParseReplay and accepted by `faultbench -replay`.
func (c FuzzCfg) Replay() string {
	var b strings.Builder
	if c.Alg != "" {
		fmt.Fprintf(&b, "alg=%s ", c.Alg)
	}
	fmt.Fprintf(&b, "seed=%d", c.Seed)
	if c.Mutant != "" {
		fmt.Fprintf(&b, " mutant=%s", c.Mutant)
	}
	if c.CPUs > 0 {
		fmt.Fprintf(&b, " cpus=%d", c.CPUs)
	}
	if c.Threads > 0 {
		fmt.Fprintf(&b, " threads=%d", c.Threads)
	}
	if c.Horizon > 0 {
		fmt.Fprintf(&b, " horizon=%d", c.Horizon)
	}
	fmt.Fprintf(&b, " plan=%s", c.Plan.String())
	return b.String()
}

// ParseReplay parses a Replay spec. cpus, threads and horizon must be
// non-negative (zero derives the value from the seed, as an omitted key
// does).
func ParseReplay(s string) (FuzzCfg, error) {
	var c FuzzCfg
	for _, field := range strings.Fields(s) {
		k, v, found := strings.Cut(field, "=")
		if !found {
			return c, fmt.Errorf("harness: bad replay term %q (want key=value)", field)
		}
		var err error
		switch k {
		case "alg":
			c.Alg = v
		case "mutant":
			c.Mutant = v
		case "seed":
			c.Seed, err = strconv.ParseUint(v, 10, 64)
		case "cpus":
			c.CPUs, err = nonNegative(v)
		case "threads":
			c.Threads, err = nonNegative(v)
		case "horizon":
			var n int
			n, err = nonNegative(v)
			c.Horizon = sim.Time(n)
		case "plan":
			c.Plan, err = fault.ParsePlan(v)
		default:
			return c, fmt.Errorf("harness: unknown replay key %q", k)
		}
		if err != nil {
			return c, fmt.Errorf("harness: bad replay value for %q: %v", k, err)
		}
	}
	return c, nil
}

// nonNegative parses a replay value that must not be negative.
func nonNegative(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err == nil && n < 0 {
		err = fmt.Errorf("%d is negative", n)
	}
	return n, err
}

// ShrinkFailure minimizes a failing config: re-run to confirm, pin the
// derived shape, shrink the plan (drop faults, halve magnitudes), then
// shorten the horizon and halve the thread count while the failure
// persists. Returns the minimal config and its (still-failing) result;
// if the original config does not fail, it is returned unchanged.
func ShrinkFailure(c FuzzCfg) (FuzzCfg, FuzzResult, error) {
	base, err := Fuzz(c)
	if err != nil || !base.Failed() {
		return c, base, err
	}
	c.CPUs, c.Threads, c.Horizon = base.CPUs, base.Threads, base.Horizon
	fails := func(cand FuzzCfg) bool {
		r, err := Fuzz(cand)
		return err == nil && r.Failed()
	}
	c.Plan = fault.Shrink(c.Plan, func(p fault.Plan) bool {
		cand := c
		cand.Plan = p
		return fails(cand)
	})
	for c.Horizon/2 >= 200_000 {
		cand := c
		cand.Horizon = c.Horizon / 2
		if !fails(cand) {
			break
		}
		c.Horizon = cand.Horizon
	}
	for c.Threads > 2 {
		cand := c
		cand.Threads = c.Threads / 2
		if cand.Threads < 2 {
			cand.Threads = 2
		}
		if !fails(cand) {
			break
		}
		c.Threads = cand.Threads
	}
	final, err := Fuzz(c)
	return c, final, err
}
