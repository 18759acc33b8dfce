package main

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workloads/dbindex"
	"repro/internal/workloads/dedup"
	"repro/internal/workloads/hashtable"
	"repro/internal/workloads/kvstore"
	"repro/internal/workloads/raytrace"
	"repro/internal/workloads/sharedmem"
	"repro/internal/workloads/streamcluster"
)

// The staged path. Harness entry points (RunSharedMem, RunX, RunOpenLoop,
// Fuzz) bundle environment construction with the run, so the benchmark
// drives the same public stages itself — harness.NewEnv, the observers'
// Attach calls, the workload's Build/Open/Bench, Machine.Run,
// Env.Collect, Validate — and times each one from here. Every cell's
// staged result is checked against its entry point's (ref.agrees), which
// proves the two paths run the same simulation.

// obsSet selects the observers a staged run attaches.
type obsSet struct {
	Trace   bool // digest tracer (sim.Tracer)
	Observe bool // per-lock telemetry (obs.LockObserver)
	Window  bool // flight recorder (timeseries.Sampler)
	Races   bool // race auditor (check.RaceAuditor)
}

// stages is the host time of one staged run, split at the calls into
// each module. Setup is everything before Machine.Run.
type stages struct {
	Env, Attach, Build, Run, Collect, Validate time.Duration
}

func (s stages) setup() time.Duration { return s.Env + s.Attach + s.Build }

func (s stages) total() time.Duration { return s.setup() + s.Run + s.Collect + s.Validate }

func (s *stages) add(o stages) {
	s.Env += o.Env
	s.Attach += o.Attach
	s.Build += o.Build
	s.Run += o.Run
	s.Collect += o.Collect
	s.Validate += o.Validate
}

// lapClock hands out the time since the previous lap.
type lapClock struct{ last time.Time }

func startClock() *lapClock { return &lapClock{last: time.Now()} }

func (c *lapClock) lap() time.Duration {
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	return d
}

// ref is a cell's deterministic fingerprint: what the entry point and
// the staged path must agree on, and what the recorded default-seed
// table holds. Fields an entry point cannot report stay zero there and
// are not compared (Fuzz has no trace digest).
type ref struct {
	Digest     string `json:"digest,omitempty"`
	Events     int64  `json:"events,omitempty"`
	Ops        int64  `json:"ops"`
	Quiesced   int64  `json:"quiesced,omitempty"`
	Violations int64  `json:"violations,omitempty"`
	Crashes    int64  `json:"crashes,omitempty"`
}

// agrees reports whether got matches want on every field want records.
func (want ref) agrees(got ref) bool {
	if want.Digest != "" && (want.Digest != got.Digest || want.Events != got.Events) {
		return false
	}
	return want.Ops == got.Ops && want.Quiesced == got.Quiesced &&
		want.Violations == got.Violations && want.Crashes == got.Crashes
}

func digestRef(d uint64, events, ops int64) ref {
	return ref{Digest: fmt.Sprintf("%016x", d), Events: events, Ops: ops}
}

// counts is the deterministic count lane: identical on every run of the
// same cell, so they explain host time without its noise.
type counts struct {
	Events, Ops                                    int64
	Switches, Preemptions, Steals, Migrations      int64
	Acquires, Handovers, Blocks, Wakes             int64
	SpinToBlock, SpinIters                         int64
	PolicySwitches, CSPreemptions                  int64
	Violations, Races, Crashes, Abandoned, Orphans int64
	Offered, Completed, Dropped, PeakWorkers       int64
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.Ops += o.Ops
	c.Switches += o.Switches
	c.Preemptions += o.Preemptions
	c.Steals += o.Steals
	c.Migrations += o.Migrations
	c.Acquires += o.Acquires
	c.Handovers += o.Handovers
	c.Blocks += o.Blocks
	c.Wakes += o.Wakes
	c.SpinToBlock += o.SpinToBlock
	c.SpinIters += o.SpinIters
	c.PolicySwitches += o.PolicySwitches
	c.CSPreemptions += o.CSPreemptions
	c.Violations += o.Violations
	c.Races += o.Races
	c.Crashes += o.Crashes
	c.Abandoned += o.Abandoned
	c.Orphans += o.Orphans
	c.Offered += o.Offered
	c.Completed += o.Completed
	c.Dropped += o.Dropped
	c.PeakWorkers = max(c.PeakWorkers, o.PeakWorkers)
}

// machineCounts reads the scheduler, lock-observer and monitor counters
// of a finished env.
func machineCounts(e *harness.Env) counts {
	n := counts{
		Switches:    e.M.TotalSwitches,
		Preemptions: e.M.TotalPreemptions,
		Steals:      e.M.TotalSteals,
		Migrations:  e.M.TotalMigrations,
	}
	for _, th := range e.M.Threads() {
		n.SpinIters += th.SpinIters
	}
	if e.Tr != nil {
		n.Events = e.Tr.Seen
	}
	if e.Obs != nil {
		t := e.Obs.Totals()
		n.Acquires, n.Handovers, n.Blocks, n.Wakes = t.Acquires, t.Handovers, t.Blocks, t.Wakes
		n.SpinToBlock = t.SpinToBlock
	}
	if e.Mon != nil {
		n.PolicySwitches = e.Mon.SpinToBlockSwitches + e.Mon.BlockToSpinSwitches
		n.CSPreemptions = e.Mon.InCSPreemptions
	}
	return n
}

// outcome is one staged run of one cell.
type outcome struct {
	Ref ref
	// Fail is why the cell's own output check failed ("" = passed): a
	// Validate error, a deadlock, a checker violation on a stock lock, or
	// a broken conservation invariant.
	Fail string
	St   stages
	N    counts
}

// runStaged runs one cell through the staged path.
func runStaged(c cell, o obsSet) outcome {
	switch c.Kind {
	case kindOpen:
		return runOpen(c, o)
	case kindFuzz:
		return runFuzz(c, o)
	}
	return runClosed(c, o)
}

// runEntry runs one cell through its harness entry point.
func runEntry(c cell) (ref, error) {
	switch c.Kind {
	case kindOpen:
		r, err := harness.RunOpenLoop(c.Open)
		if err == nil && r.Deadlocked {
			err = fmt.Errorf("deadlocked")
		}
		return digestRef(r.TraceDigest, r.TraceEvents, r.Completed), err
	case kindFuzz:
		r, err := harness.Fuzz(c.Fuzz)
		return ref{
			Ops: r.Ops, Quiesced: int64(r.Quiesced),
			Violations: int64(len(r.Violations)), Crashes: r.Crashes,
		}, err
	}
	var r harness.Result
	var err error
	switch c.App {
	case "sharedmem":
		r, err = harness.RunSharedMem(c.Run, 100)
	case "hashtable":
		r, err = harness.RunHashTable(c.Run)
	case "dbindex":
		r, err = harness.RunDBIndex(c.Run)
	case "dedup":
		r, err = harness.RunDedup(c.Run)
	case "raytrace":
		r, err = harness.RunRaytrace(c.Run)
	case "streamcluster":
		r, err = harness.RunStreamcluster(c.Run)
	case "kv-read":
		r, err = harness.RunKV(c.Run, kvstore.ReadRandom)
	case "kv-fill":
		r, err = harness.RunKV(c.Run, kvstore.FillRandom)
	default:
		err = fmt.Errorf("unknown app %q", c.App)
	}
	if err == nil && r.Deadlocked {
		err = fmt.Errorf("deadlocked")
	}
	return digestRef(r.TraceDigest, r.TraceEvents, r.Ops), err
}

// buildApp spawns a closed-loop workload's threads and returns its
// validator (the same Build/Open/Bench calls the RunX entry points make).
func buildApp(app string, e *harness.Env, threads int, dur sim.Time) (func() error, error) {
	switch app {
	case "sharedmem":
		w := sharedmem.Build(e.M, sharedmem.Options{Threads: threads, Deadline: dur, ThinkTicks: 100, NewLock: e.NewLock})
		return func() error {
			if ok, a, b := w.Validate(e.M); !ok {
				return fmt.Errorf("sharedmem critical-section lines diverged: %d vs %d", a, b)
			}
			return nil
		}, nil
	case "hashtable":
		return hashtable.Build(e.M, hashtable.Options{Threads: threads, Deadline: dur, NewLock: e.NewLock}).Validate, nil
	case "dbindex":
		return dbindex.Build(e.M, dbindex.Options{Threads: threads, Deadline: dur, NewLock: e.NewLock}).Validate, nil
	case "dedup":
		return dedup.Build(e.M, dedup.Options{Threads: threads, Stripes: 16384, Deadline: dur, NewLock: e.NewLock}).Validate, nil
	case "raytrace":
		w := raytrace.Build(e.M, raytrace.Options{Threads: threads, Deadline: dur, NewLock: e.NewLock})
		return func() error { return w.Validate(threads) }, nil
	case "streamcluster":
		return streamcluster.Build(e.M, streamcluster.Options{
			Threads: threads, Deadline: dur, NewLock: e.NewLock,
			NewBarrier: func(n string, k int) *locks.Barrier { return locks.NewBarrier(e.M, n, k) },
		}).Validate, nil
	case "kv-read", "kv-fill":
		kind := kvstore.ReadRandom
		if app == "kv-fill" {
			kind = kvstore.FillRandom
		}
		db := kvstore.Open(e.M, kvstore.DBOptions{NewLock: e.NewLock})
		kvstore.Bench(e.M, db, kvstore.BenchOptions{Kind: kind, Threads: threads, Deadline: dur})
		return db.Validate, nil
	}
	return nil, fmt.Errorf("unknown app %q", app)
}

// window is the flight-recorder sampling window for a run of length dur.
func window(dur sim.Time) sim.Time { return dur / 16 }

// runClosed mirrors harness.RunSharedMem / RunX: prepare, Build, finish.
func runClosed(c cell, o obsSet) outcome {
	rc := c.Run
	var out outcome
	cfg := rc.Config
	cfg.Seed = rc.Seed
	if need := rc.Threads + rc.Spinners + 8; cfg.MaxThreads < need {
		cfg.MaxThreads = need
	}
	dur := rc.Duration
	clk := startClock()
	e, err := harness.NewEnv(harness.EnvOptions{Config: cfg, Alg: rc.Alg, Observe: o.Observe})
	if err != nil {
		out.Fail = err.Error()
		return out
	}
	out.St.Env = clk.lap()
	if o.Trace {
		e.Tr = e.M.AttachTracer(256)
	}
	if o.Races {
		e.Race = check.AttachRace(e.M, check.RaceOptions{})
	}
	if o.Window {
		e.TS = timeseries.Attach(e.M, timeseries.Options{
			Window: window(dur), ExpectWindows: int((dur+dur/4)/window(dur)) + 1,
		})
	}
	out.St.Attach = clk.lap()
	validate, err := buildApp(c.App, e, rc.Threads, dur)
	if err != nil {
		out.Fail = err.Error()
		return out
	}
	base := e.M.Now()
	e.SpawnSpinners(rc.Spinners, base+dur)
	out.St.Build = clk.lap()
	q := e.M.Run(base + dur + dur/4)
	out.St.Run = clk.lap()
	r := e.Collect(rc.Threads, dur)
	if q < base+dur && e.M.Deadlocked() {
		out.Fail = "deadlocked:\n" + e.M.DeadlockReport()
	}
	out.N = machineCounts(e)
	out.N.Ops = r.Ops
	if e.Race != nil {
		e.Race.Finish(q)
		out.N.Races = e.Race.Total
	}
	if e.TS != nil {
		e.TS.Finish(q)
	}
	if e.Tr != nil {
		out.Ref = digestRef(e.Tr.Digest(), e.Tr.Seen, r.Ops)
	} else {
		out.Ref = ref{Ops: r.Ops}
	}
	out.St.Collect = clk.lap()
	if err := validate(); err != nil && out.Fail == "" {
		out.Fail = "validate: " + err.Error()
	}
	out.St.Validate = clk.lap()
	return out
}

// runOpen mirrors harness.RunOpenLoop.
func runOpen(c cell, o obsSet) outcome {
	oc := c.Open
	var out outcome
	cfg := oc.Config
	cfg.Seed = oc.Seed
	if need := 4*cfg.NumCPUs + 80; cfg.MaxThreads < need {
		cfg.MaxThreads = need
	}
	dur := oc.Duration
	clk := startClock()
	e, err := harness.NewEnv(harness.EnvOptions{Config: cfg, Alg: oc.Alg, Observe: o.Observe})
	if err != nil {
		out.Fail = err.Error()
		return out
	}
	out.St.Env = clk.lap()
	if o.Trace {
		e.Tr = e.M.AttachTracer(256)
	}
	if o.Races {
		e.Race = check.AttachRace(e.M, check.RaceOptions{})
	}
	out.St.Attach = clk.lap()
	meanGap := sim.Time(harness.TicksPerMillisecond / oc.RateMs)
	arr, err := traffic.New(oc.Pattern, cfg.Seed^0x9e3779b97f4a7c15, meanGap)
	if err != nil {
		out.Fail = err.Error()
		return out
	}
	eng := traffic.Build(e.M, traffic.Options{
		Arrivals: arr, Deadline: dur, QueueCap: oc.QueueCap, Locks: oc.Locks,
		ServiceMean: oc.ServiceMean, NewLock: e.NewLock, Seed: cfg.Seed + 1,
	})
	out.St.Build = clk.lap()
	if o.Window {
		// The sampler reads the engine's queue gauge, so it attaches after
		// Build, as in RunOpenLoop.
		e.TS = timeseries.Attach(e.M, timeseries.Options{
			Window: window(dur), ExpectWindows: int((dur+dur/2)/window(dur)) + 1,
			QueueDepth: eng.QueueDepth,
		})
	}
	out.St.Attach += clk.lap()
	horizon := dur + dur/2
	q := e.M.Run(horizon)
	out.St.Run = clk.lap()
	s := eng.Stats()
	if q < horizon && e.M.Deadlocked() {
		out.Fail = "deadlocked:\n" + e.M.DeadlockReport()
	}
	out.N = machineCounts(e)
	out.N.Ops = s.Completed
	out.N.Offered, out.N.Completed, out.N.Dropped = s.Offered, s.Completed, s.Dropped
	out.N.PeakWorkers = s.PeakWorkers
	if e.Race != nil {
		e.Race.Finish(q)
		out.N.Races = e.Race.Total
	}
	if e.TS != nil {
		e.TS.Finish(q)
	}
	if e.Tr != nil {
		out.Ref = digestRef(e.Tr.Digest(), e.Tr.Seen, s.Completed)
	} else {
		out.Ref = ref{Ops: s.Completed}
	}
	out.St.Collect = clk.lap()
	if err := eng.Validate(); err != nil && out.Fail == "" {
		out.Fail = "validate: " + err.Error()
	}
	out.St.Validate = clk.lap()
	return out
}

// runFuzz mirrors harness.Fuzz for a stock algorithm with a pinned shape.
func runFuzz(c cell, o obsSet) outcome {
	fc := c.Fuzz
	var out outcome
	// Fuzz draws the shape from the seed before applying pinned values;
	// the timeslice draws still shape the run, so replay them in order.
	rng := dist.NewRand(fc.Seed)
	_ = rng.Intn(6) // cpus, pinned
	timeslice := sim.Time(10_000 + rng.Intn(90_000))
	sliceExt := sim.Time(0)
	if rng.Intn(2) == 0 {
		sliceExt = sim.Time(2_000 + rng.Intn(10_000))
	}
	cpus, threads, horizon := fc.CPUs, fc.Threads, fc.Horizon
	cfg := sim.Small(cpus)
	cfg.Seed = fc.Seed
	cfg.Costs.Timeslice = timeslice
	cfg.Costs.MinSlice = timeslice / 10
	cfg.Costs.SliceExt = sliceExt
	if need := threads + 8; cfg.MaxThreads < need {
		cfg.MaxThreads = need
	}
	clk := startClock()
	e, err := harness.NewEnv(harness.EnvOptions{Config: cfg, Alg: fc.Alg, Observe: o.Observe})
	if err != nil {
		out.Fail = err.Error()
		return out
	}
	out.St.Env = clk.lap()
	co := check.Options{Registry: obs.NewRegistry(), EmitEvents: true}
	if horizon/2 < 1_000_000 {
		co.StallBound = horizon / 2
	}
	ck := check.Attach(e.M, co)
	if o.Races {
		e.Race = check.AttachRace(e.M, check.RaceOptions{
			StallBound: co.StallBound, Registry: co.Registry, EmitEvents: true,
		})
	}
	inj := fault.Apply(e.M, e.Mon, fc.Plan, fc.Seed)
	if e.Mon != nil && fc.Plan.DegradesMonitor() {
		e.Mon.EnableHealthCheck(0, 0)
	}
	if o.Trace {
		e.Tr = e.M.AttachTracer(256)
	}
	out.St.Attach = clk.lap()
	w := sharedmem.Build(e.M, sharedmem.Options{Threads: threads, Deadline: horizon, NewLock: e.NewLock})
	out.St.Build = clk.lap()
	grace := horizon * 3
	if fc.Alg == "uscl" {
		grace += sim.Time(threads) * 1_000_000
	}
	if !fc.Plan.IsZero() {
		grace += horizon + sim.Time(threads)*(4*fc.Plan.WakeDelay+100_000)
	}
	if o.Window {
		e.TS = timeseries.Attach(e.M, timeseries.Options{
			Window: window(horizon), ExpectWindows: int(grace/window(horizon)) + 1,
		})
	}
	out.St.Attach += clk.lap()
	q := e.M.Run(grace)
	out.St.Run = clk.lap()
	deadlocked := e.M.Deadlocked()
	violations := ck.Finish(q)
	out.N = machineCounts(e)
	if e.Race != nil {
		e.Race.Finish(q)
		out.N.Races = e.Race.Total
	}
	if e.TS != nil {
		e.TS.Finish(q)
	}
	var crashes int64
	if inj != nil {
		crashes = inj.Crashes
	}
	var ops int64
	for _, th := range e.M.Threads() {
		ops += th.Ops
	}
	out.N.Ops = ops
	out.N.Crashes = crashes
	out.N.Abandoned = e.Shared.Abandons
	out.St.Collect = clk.lap()
	ok, a, b := w.Validate(e.M)
	if crashes > 0 {
		// A killed holder may have died between the two line stores.
		ok, a, b = w.ValidateCrashed(e.M, crashes)
	}
	out.St.Validate = clk.lap()
	nviol := int64(len(violations))
	orphaned, other := false, !ok
	for _, v := range violations {
		if v.Invariant == check.OrphanedLock {
			orphaned = true
		} else {
			other = true
		}
	}
	if !ok {
		nviol++
	}
	out.N.Violations = nviol
	if orphaned {
		out.N.Orphans = 1
	}
	out.Ref = ref{Ops: ops, Quiesced: int64(q), Violations: nviol, Crashes: crashes}
	if e.Tr != nil {
		out.Ref.Digest = fmt.Sprintf("%016x", e.Tr.Digest())
		out.Ref.Events = e.Tr.Seen
	}
	// Verdicts: outside crash plans any violation or hang fails. Under a
	// crash plan an orphaned-lock verdict is the designed outcome for a
	// lock that cannot recover, so only other violations, or a hang with
	// no verdict, fail (faultbench -crash's classification).
	hang := deadlocked || q >= grace
	switch {
	case !c.Crash && (nviol > 0 || hang):
		out.Fail = fmt.Sprintf("%d violation(s), deadlocked=%t, hit grace=%t", nviol, deadlocked, q >= grace)
	case c.Crash && (other || (hang && !orphaned)):
		out.Fail = fmt.Sprintf("crash plan: non-orphan violation or silent hang (lines %d vs %d, deadlocked=%t)", a, b, deadlocked)
	}
	return out
}
