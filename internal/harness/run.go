package harness

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/locks"
	"repro/internal/obs/timeseries"
	"repro/internal/sim"
	"repro/internal/workloads/dbindex"
	"repro/internal/workloads/dedup"
	"repro/internal/workloads/hackbench"
	"repro/internal/workloads/hashtable"
	"repro/internal/workloads/kvstore"
	"repro/internal/workloads/raytrace"
	"repro/internal/workloads/sharedmem"
	"repro/internal/workloads/streamcluster"
)

// RunCfg describes one benchmark run: a workload instance on one machine
// with one lock algorithm.
type RunCfg struct {
	Config          sim.Config
	Alg             string
	Threads         int
	Spinners        int // concurrent busy-waiting workload threads
	Duration        sim.Time
	Seed            uint64
	PerLock         bool // monitor per-lock counter ablation
	BlockingMCSExit bool
	// RecordRunnable enables the Figure 5a timeline.
	RecordRunnable bool
	// Observe attaches the lock-event observer (per-lock telemetry in
	// Result; see EnvOptions.Observe).
	Observe bool
	// Trace attaches a small-ring tracer whose streaming digest covers
	// the full event stream (Result.TraceDigest/TraceEvents): the
	// behavioural fingerprint the determinism and golden-trace suites
	// compare across worker counts and scheduler refactors.
	Trace bool
	// Races attaches the race auditor (check.AttachRace); its verdicts
	// land in Result.Races/RaceTotal. Attaching never perturbs the run:
	// digests are byte-identical with and without it.
	Races bool
	// Window, when positive, attaches the flight recorder with this
	// sampling window (ticks); the windowed series land in
	// Result.Series. Like the other observers it never perturbs the
	// run: trace digests are byte-identical with and without it.
	Window sim.Time
}

// workload builds one workload on an env: it spawns the worker threads,
// which stop at deadline (absolute machine time), and returns the
// end-of-run check, given how many threads a fault plan killed.
type workload func(e *Env, threads int, deadline sim.Time) (validate func(crashes int64) error)

// stages is one run through the staged path behind every entry point:
// build env → attach observers → build workload → run to a horizon →
// finish observers → validate. Entry points fill it from their config
// and map the staged outcome onto their result type.
type stages struct {
	env func() (*Env, error) // NewEnv, or a warm-snapshot clone

	// Observers. All but the flight recorder attach before the build,
	// in this order: checker, race auditor, fault plan, tracer.
	check  *check.Options // nil: no invariant checker
	races  bool
	plan   fault.Plan // requires check; seeded with the machine's config seed
	trace  bool
	window sim.Time

	work     workload
	threads  int
	spinners int
	// capped stops a closed-loop run after the build when the algorithm
	// exceeded its lock-count cap (u-SCL), as the paper's runs crash.
	capped bool
	// deadline, horizon and hangBefore are relative to the machine clock
	// at the build: zero on cold machines, the snapshot boundary on warm
	// clones. Threads still parked when the machine drained are a
	// deadlock only if it drained before hangBefore.
	deadline, horizon, hangBefore sim.Time
}

// staged is the outcome of a staged run.
type staged struct {
	e          *Env
	q          sim.Time
	deadlocked bool
	dump       string
	violations []check.Violation
	races      []check.Race
	raceTotal  int64
	series     *timeseries.Series
	digest     uint64
	events     int64
	crashes    int64
	err        error // the workload's end-of-run check
}

// run takes the stages in order. It fails only when the env cannot be
// built; a failed workload check lands in the outcome's err.
func (s stages) run() (*staged, error) {
	e, err := s.env()
	if err != nil {
		return nil, err
	}
	var ck *check.Checker
	if s.check != nil {
		ck = check.Attach(e.M, *s.check)
	}
	if s.races {
		var ro check.RaceOptions
		if s.check != nil {
			ro = check.RaceOptions{StallBound: s.check.StallBound, Registry: s.check.Registry, EmitEvents: true}
		}
		e.Race = check.AttachRace(e.M, ro)
	}
	inj := fault.Apply(e.M, e.Mon, s.plan, e.M.Config().Seed)
	if e.Mon != nil && s.plan.DegradesMonitor() {
		// Degraded-monitor plans arm the monitor's self-check: the
		// graceful-degradation acceptance criterion is exactly that this
		// combination yields zero violations.
		e.Mon.EnableHealthCheck(0, 0)
	}
	if s.trace {
		// A tiny ring suffices: the digest is folded per event before
		// eviction, so it is exact over the whole stream.
		e.Tr = e.M.AttachTracer(256)
	}

	base := e.M.Now()
	validate := s.work(e, s.threads, base+s.deadline)
	out := &staged{e: e}
	if s.capped && e.Crashed() {
		return out, nil // nothing runs
	}
	if s.window > 0 {
		// Sized to the horizon so steady-state sampling is allocation-free.
		e.TS = timeseries.Attach(e.M, timeseries.Options{
			Window:        s.window,
			ExpectWindows: int(s.horizon/s.window) + 1,
			QueueDepth:    e.queueDepth,
		})
	}
	// After the workload: Collect identifies workers by spawn index.
	e.SpawnSpinners(s.spinners, base+s.deadline)

	out.q = e.M.Run(base + s.horizon)
	if out.q < base+s.hangBefore && e.M.Deadlocked() {
		out.deadlocked, out.dump = true, e.M.DeadlockReport()
	}
	if ck != nil {
		out.violations = ck.Finish(out.q)
	}
	if e.Race != nil {
		out.races = e.Race.Finish(out.q)
		out.raceTotal = e.Race.Total
	}
	if e.TS != nil {
		out.series = e.TS.Finish(out.q)
	}
	// After every Finish: end-of-run verdicts land in the stream too.
	if e.Tr != nil {
		out.digest, out.events = e.Tr.Digest(), e.Tr.Seen
	}
	if inj != nil {
		out.crashes = inj.Crashes
		s.check.Registry.Counter("fault.crashes").Add(inj.Crashes)
	}
	out.err = validate(out.crashes)
	return out, nil
}

// verdicts returns the checker's verdicts plus a failed workload check
// as a MutualExclusion violation, detailed through format: the
// workload-level witness that mutual exclusion was lost even if the
// event stream looked clean.
func (s *staged) verdicts(format string) []check.Violation {
	if s.err == nil {
		return s.violations
	}
	return append(s.violations, check.Violation{
		Invariant: check.MutualExclusion, At: s.q, Lock: -1, Thread: -1,
		Detail: fmt.Sprintf(format, s.err),
	})
}

// newEnv is the cold env stage.
func newEnv(o EnvOptions) func() (*Env, error) {
	return func() (*Env, error) { return NewEnv(o) }
}

// defaultSeed maps seed 0 to 42, the closed- and open-loop default
// (Fuzz alone passes seed 0 through).
func defaultSeed(seed uint64) uint64 {
	if seed == 0 {
		return 42
	}
	return seed
}

// withHeadroom raises the machine's thread cap to at least need.
func withHeadroom(cfg sim.Config, need int) sim.Config {
	if cfg.MaxThreads < need {
		cfg.MaxThreads = need
	}
	return cfg
}

// runOptions resolves a RunCfg into the env construction options and
// the workload duration (shared with the warm-snapshot path in
// snapshot.go).
func runOptions(c RunCfg) (EnvOptions, sim.Time) {
	cfg := withHeadroom(c.Config, c.Threads+c.Spinners+8)
	cfg.Seed = defaultSeed(c.Seed)
	cfg.RecordRunnable = c.RecordRunnable
	dur := c.Duration
	if dur == 0 {
		dur = 20_000_000
	}
	return EnvOptions{
		Config:          cfg,
		Alg:             c.Alg,
		PerLock:         c.PerLock,
		BlockingMCSExit: c.BlockingMCSExit,
		Observe:         c.Observe,
	}, dur
}

// runClosed runs a closed-loop workload through the staged path: the
// workers stop at dur and the machine runs on to 5/4 of it so in-flight
// operations complete. Threads still parked when the machine drained
// are a hang only if the drain happened before the workload deadline:
// waiters stranded at shutdown (e.g. barrier peers whose partners
// exited on deadline) are a benign end-of-run artifact.
func runClosed(c RunCfg, dur sim.Time, env func() (*Env, error), w workload) (*Env, Result, error) {
	out, err := stages{
		env: env, races: c.Races, trace: c.Trace, window: c.Window,
		work: w, threads: c.Threads, spinners: c.Spinners, capped: true,
		deadline: dur, horizon: dur + dur/4, hangBefore: dur,
	}.run()
	if err != nil {
		return nil, Result{}, err
	}
	if out.e.Crashed() {
		return out.e, Result{Alg: c.Alg, Threads: c.Threads, Spinners: c.Spinners, Crashed: true}, nil
	}
	r := out.e.Collect(c.Threads, dur)
	r.Spinners = c.Spinners
	r.Deadlocked, r.DeadlockDump = out.deadlocked, out.dump
	r.TraceDigest, r.TraceEvents = out.digest, out.events
	r.Races, r.RaceTotal = out.races, out.raceTotal
	r.Series = out.series
	return out.e, r, out.err
}

// runCold runs a closed-loop workload on a freshly built machine.
func runCold(c RunCfg, w workload) (*Env, Result, error) {
	o, dur := runOptions(c)
	return runClosed(c, dur, newEnv(o), w)
}

// noEnv drops the env from runCold's outcome.
func noEnv(_ *Env, r Result, err error) (Result, error) { return r, err }

// sharedmemWork is the shared-memory-access microbenchmark; mu, when
// set, replaces the env's locks with a fault mutant.
func sharedmemWork(think sim.Time, mu *fault.Mutant) workload {
	return func(e *Env, threads int, deadline sim.Time) func(int64) error {
		newLock := e.NewLock
		if mu != nil {
			var npcs *sim.Word
			if e.Mon != nil {
				npcs = e.Mon.NPCS()
			}
			newLock = func(name string) locks.Lock { return mu.New(e.M, npcs, name) }
		}
		w := sharedmem.Build(e.M, sharedmem.Options{
			Threads:    threads,
			Deadline:   deadline,
			ThinkTicks: think,
			NewLock:    newLock,
		})
		return func(crashes int64) error {
			ok, a, b := w.Validate(e.M)
			if crashes > 0 {
				// A killed holder may have died between the two line
				// stores; tolerate exactly that much divergence.
				ok, a, b = w.ValidateCrashed(e.M, crashes)
			}
			if !ok {
				return fmt.Errorf("sharedmem critical-section lines diverged: %d vs %d", a, b)
			}
			return nil
		}
	}
}

// The Figure 3/4 applications. No fault plan runs them, so their checks
// take no crash count.

func hashtableWork(e *Env, threads int, deadline sim.Time) func(int64) error {
	return noCrashes(hashtable.Build(e.M, hashtable.Options{Threads: threads, Deadline: deadline, NewLock: e.NewLock}).Validate)
}

func dbindexWork(e *Env, threads int, deadline sim.Time) func(int64) error {
	return noCrashes(dbindex.Build(e.M, dbindex.Options{Threads: threads, Deadline: deadline, NewLock: e.NewLock}).Validate)
}

func dedupWork(e *Env, threads int, deadline sim.Time) func(int64) error {
	return noCrashes(dedup.Build(e.M, dedup.Options{Threads: threads, Stripes: 16384, Deadline: deadline, NewLock: e.NewLock}).Validate)
}

func raytraceWork(e *Env, threads int, deadline sim.Time) func(int64) error {
	w := raytrace.Build(e.M, raytrace.Options{Threads: threads, Deadline: deadline, NewLock: e.NewLock})
	return noCrashes(func() error { return w.Validate(threads) })
}

func streamclusterWork(e *Env, threads int, deadline sim.Time) func(int64) error {
	return noCrashes(streamcluster.Build(e.M, streamcluster.Options{
		Threads: threads, Deadline: deadline, NewLock: e.NewLock,
		NewBarrier: func(n string, k int) *locks.Barrier { return locks.NewBarrier(e.M, n, k) },
	}).Validate)
}

func kvWork(kind kvstore.WorkloadKind) workload {
	return func(e *Env, threads int, deadline sim.Time) func(int64) error {
		db := kvstore.Open(e.M, kvstore.DBOptions{NewLock: e.NewLock})
		kvstore.Bench(e.M, db, kvstore.BenchOptions{Kind: kind, Threads: threads, Deadline: deadline})
		return noCrashes(db.Validate)
	}
}

func noCrashes(check func() error) func(int64) error {
	return func(int64) error { return check() }
}

// RunSharedMem runs the shared-memory-access microbenchmark (Figs 1/2/5).
func RunSharedMem(c RunCfg, think sim.Time) (Result, error) {
	return noEnv(RunSharedMemEnv(c, think))
}

// RunSharedMemEnv is RunSharedMem but returns the env for inspection
// (Figure 5a timeline, mode-transition counts).
func RunSharedMemEnv(c RunCfg, think sim.Time) (*Env, Result, error) {
	return runCold(c, sharedmemWork(think, nil))
}

// RunHashTable runs the hash-table microbenchmark (Figs 3a–d).
func RunHashTable(c RunCfg) (Result, error) { return noEnv(runCold(c, hashtableWork)) }

// RunDBIndex runs the PiBench-style database index (Figs 3e–h).
func RunDBIndex(c RunCfg) (Result, error) { return noEnv(runCold(c, dbindexWork)) }

// RunDedup runs the Dedup pipeline (Figs 3i–l).
func RunDedup(c RunCfg) (Result, error) { return noEnv(runCold(c, dedupWork)) }

// RunRaytrace runs the Raytrace workload (Figs 3m–p).
func RunRaytrace(c RunCfg) (Result, error) { return noEnv(runCold(c, raytraceWork)) }

// RunStreamcluster runs the Streamcluster workload (Figs 3q–t).
func RunStreamcluster(c RunCfg) (Result, error) { return noEnv(runCold(c, streamclusterWork)) }

// RunKV runs the LevelDB-style store (Fig 4). kind selects
// readrandom/fillrandom.
func RunKV(c RunCfg, kind kvstore.WorkloadKind) (Result, error) {
	return noEnv(runCold(c, kvWork(kind)))
}

// RunHackbench runs the §5.4 overhead experiment and returns the runtimes
// with the monitor detached and attached.
func RunHackbench(cfg sim.Config, seed uint64, o hackbench.Options) (off, on sim.Time, err error) {
	run := func(withMonitor bool) (sim.Time, error) {
		c := cfg
		c.Seed = seed
		c.Costs.HookCost = monitorHookCost
		alg := "blocking"
		if withMonitor {
			alg = "flexguard" // attaches the monitor; hackbench uses no locks
		}
		e, err := NewEnv(EnvOptions{Config: c, Alg: alg})
		if err != nil {
			return 0, err
		}
		res := hackbench.Run(e.M, o)
		if res.Received != uint64(res.Messages) {
			return 0, errLostMessages
		}
		return res.Runtime, nil
	}
	if off, err = run(false); err != nil {
		return
	}
	on, err = run(true)
	return
}

// errLostMessages reports an incomplete hackbench run.
var errLostMessages = errHackbench("hackbench: messages lost")

type errHackbench string

func (e errHackbench) Error() string { return string(e) }
