package harness

import (
	"fmt"

	"repro/internal/sim"
)

// WarmSpec configures the warm phase run before a snapshot is taken:
// background threads dirty cache lines and advance the clock so the
// measured workload starts on a machine that looks mid-flight rather
// than freshly booted. The warm threads touch only dedicated warm words
// — never locks or the monitor — so every object the construction
// closure replays on a clone is still in its just-built state at the
// snapshot boundary (the restriction sim.Snapshot documents).
type WarmSpec struct {
	// Threads is the number of warm worker threads (default 4).
	Threads int
	// Duration bounds the warm phase (default 1ms of virtual time). The
	// phase runs to quiescence; Duration is the RunPhase horizon and the
	// clock value clones start from.
	Duration sim.Time
}

func (w WarmSpec) withDefaults() WarmSpec {
	if w.Threads <= 0 {
		w.Threads = 4
	}
	if w.Duration <= 0 {
		w.Duration = 1_000_000
	}
	return w
}

// Warmed is a reusable snapshot of a machine warmed for one sweep-cell
// shape (config, algorithm, thread count): Prewarm pays the env
// construction and warm phase once, then each per-seed run clones the
// snapshot in O(state) instead of cold-starting.
type Warmed struct {
	c    RunCfg
	o    EnvOptions
	snap *sim.Snapshot
	dur  sim.Time
	base int // warm-phase ghost threads to skip in Collect
}

// prewarmEnv builds the env and runs the warm phase, returning the
// machine live at the quiescent phase boundary. Shared by Prewarm and
// the snapshot-equivalence test, whose cold reference is this same
// machine continuing without ever being snapshotted.
func prewarmEnv(c RunCfg, w WarmSpec) (*Env, sim.Time, error) {
	o, dur := runOptions(c)
	e, err := construct(sim.New(envConfig(o)), o, c.Trace)
	if err != nil {
		return nil, 0, err
	}
	warmPhase(e.M, w)
	return e, dur, nil
}

// construct is the snapshot's construction closure: the env's Go-heap
// state plus the tracer. The tracer attaches here, not in the staged
// run, because Clone panics when tracer attachment differs and the
// digest state lives in the snapshot.
func construct(m *sim.Machine, o EnvOptions, trace bool) (*Env, error) {
	e, err := buildEnv(m, o)
	if err == nil && trace {
		e.Tr = m.AttachTracer(256)
	}
	return e, err
}

// warmPhase spawns the warm workers and drives them to quiescence. The
// loop bound is derived from the horizon with a wide safety margin: a
// RunPhase horizon overrun is a panic, not a silent truncation.
func warmPhase(m *sim.Machine, w WarmSpec) {
	w = w.withDefaults()
	iters := int(w.Duration / 20_000)
	if iters < 1 {
		iters = 1
	}
	words := m.NewWords("warm.line", w.Threads)
	for i := 0; i < w.Threads; i++ {
		i := i
		m.Spawn("warm", func(p *sim.Proc) {
			for j := 0; j < iters; j++ {
				p.Add(words[i], 1)
				p.Load(words[(i+1)%w.Threads])
				p.Compute(sim.Time(1_000 + 100*i))
			}
		})
	}
	m.RunPhase(w.Duration)
}

// Prewarm runs the construction closure and warm phase for one cell
// shape and captures the boundary as a snapshot. The returned Warmed is
// immutable and safe for concurrent RunSharedMem calls from sweep
// workers: each call clones its own machine.
//
// Observers whose Go-heap state accumulates during the warm phase
// (flight recorder, race auditor, runnable timeline) cannot be carried
// across a snapshot and are rejected here; Trace is fine because the
// tracer's digest state lives in the snapshot itself.
func Prewarm(c RunCfg, w WarmSpec) (*Warmed, error) {
	if c.RecordRunnable || c.Races || c.Window > 0 {
		return nil, fmt.Errorf("harness: Prewarm does not support RecordRunnable, Races or Window")
	}
	e, dur, err := prewarmEnv(c, w)
	if err != nil {
		return nil, err
	}
	o, _ := runOptions(c)
	return &Warmed{
		c:    c,
		o:    o,
		snap: e.M.Snapshot(),
		dur:  dur,
		base: len(e.M.Threads()),
	}, nil
}

// clone materializes a fresh machine from the snapshot, replaying the
// construction closure and reseeding for the per-cell run. seed zero
// keeps the cold-path default.
func (wm *Warmed) clone(seed uint64) *Env {
	var e *Env
	m := wm.snap.Clone(func(mm *sim.Machine) {
		// The alg was validated when Prewarm built the warm machine, so
		// construct cannot fail here.
		e, _ = construct(mm, wm.o, wm.c.Trace)
	})
	e.workerBase = wm.base
	m.Reseed(defaultSeed(seed))
	return e
}

// RunSharedMem runs the shared-memory-access microbenchmark on a clone
// of the warmed snapshot, the warm counterpart of the package-level
// RunSharedMem. The workload deadline and all collected metrics are
// relative to the snapshot boundary.
func (wm *Warmed) RunSharedMem(seed uint64, think sim.Time) Result {
	c := wm.c
	c.Trace = false // attached by the construction closure
	clone := func() (*Env, error) { return wm.clone(seed), nil }
	_, r, _ := runClosed(c, wm.dur, clone, sharedmemWork(think, nil))
	return r
}
