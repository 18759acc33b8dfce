package harness

import (
	"fmt"

	"repro/internal/obs/timeseries"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The open-loop layer: arrival-driven runs where subscription is not a
// knob. Closed-loop runs (RunCfg) fix N threads and measure throughput;
// here OpenLoopCfg fixes an offered load and the worker pool grows to
// meet it, so runnable-threads-vs-cores — the paper's whole subject —
// is an output, not an input. Results are SLO-style: response-latency
// percentiles (queue wait + service) against offered vs. achieved
// throughput.

// TicksPerMillisecond converts the offered-rate unit (requests per
// virtual millisecond) to the simulator's tick clock.
const TicksPerMillisecond = sim.TicksPerMicrosecond * 1000

// OpenLoopCfg describes one open-loop cell: one arrival process at one
// offered rate against one lock algorithm on one machine.
type OpenLoopCfg struct {
	Config  sim.Config
	Alg     string
	Pattern string  // traffic.Patterns() name
	RateMs  float64 // offered load, requests per virtual millisecond
	// Duration is the generation window; requests in flight at the
	// deadline still drain (the run horizon is Duration*3/2).
	Duration sim.Time
	Seed     uint64
	// QueueCap / Locks / ServiceMean pass through to traffic.Options
	// (zero = engine defaults).
	QueueCap    int
	Locks       int
	ServiceMean sim.Time
	// Trace attaches the digest tracer (behavioural fingerprint for the
	// -parallel identity check), Window the flight recorder with the
	// queue-depth gauge wired.
	Trace  bool
	Window sim.Time
}

// OpenLoopResult is the SLO-style outcome of one open-loop cell.
type OpenLoopResult struct {
	Alg     string
	Pattern string
	RateMs  float64

	// Offered/achieved throughput in requests per virtual second, both
	// over the generation window that actually ran (ClosedAt).
	OfferedPerSec  float64
	AchievedPerSec float64

	Offered   int64
	Completed int64
	Dropped   int64
	Lost      int64
	Backlog   int64

	// Pool shape: the emergent subscription level.
	PeakWorkers    int64
	SpawnedWorkers int64
	PeakQueue      int64

	// Response-latency percentiles (arrival to completion, µs) from the
	// log2 histogram, plus means for response and bare queue wait.
	RespP50US  float64
	RespP95US  float64
	RespP99US  float64
	RespP999US float64
	RespMeanUS float64
	WaitMeanUS float64

	Stalled      bool
	Deadlocked   bool
	DeadlockDump string

	TraceDigest uint64
	TraceEvents int64
	Series      *timeseries.Series
}

// trafficWork is the open-loop traffic engine: pattern arrivals at rate
// requests per virtual millisecond, seeded from the machine seed. The
// built engine lands in *eng for the caller's stats, and its queue gauge
// on the env for the flight recorder.
func trafficWork(pattern string, rate float64, seed uint64, o traffic.Options, eng **traffic.Engine) (workload, error) {
	arr, err := traffic.New(pattern, seed^0x9e3779b97f4a7c15, sim.Time(TicksPerMillisecond/rate))
	if err != nil {
		return nil, err
	}
	o.Arrivals, o.Seed = arr, seed+1
	return func(e *Env, _ int, deadline sim.Time) func(int64) error {
		o.Deadline, o.NewLock = deadline, e.NewLock
		*eng = traffic.Build(e.M, o)
		e.queueDepth = (*eng).QueueDepth
		return func(int64) error { return (*eng).Validate() }
	}, nil
}

// RunOpenLoop runs one open-loop cell.
func RunOpenLoop(c OpenLoopCfg) (OpenLoopResult, error) {
	if c.RateMs <= 0 {
		return OpenLoopResult{}, fmt.Errorf("harness: open-loop rate must be positive, got %g", c.RateMs)
	}
	// Headroom for the elastic pool: the engine clamps its own worker
	// cap to this budget.
	cfg := withHeadroom(c.Config, 4*c.Config.NumCPUs+80)
	cfg.Seed = defaultSeed(c.Seed)
	dur := c.Duration
	if dur == 0 {
		dur = 20_000_000
	}
	var eng *traffic.Engine
	work, err := trafficWork(c.Pattern, c.RateMs, cfg.Seed, traffic.Options{
		QueueCap:    c.QueueCap,
		Locks:       c.Locks,
		ServiceMean: c.ServiceMean,
	}, &eng)
	if err != nil {
		return OpenLoopResult{}, err
	}
	horizon := dur + dur/2
	out, err := stages{
		env:   newEnv(EnvOptions{Config: cfg, Alg: c.Alg}),
		trace: c.Trace, window: c.Window, work: work,
		deadline: dur, horizon: horizon, hangBefore: horizon,
	}.run()
	if err == nil {
		err = out.err
	}
	if err != nil {
		return OpenLoopResult{}, err
	}
	s := eng.Stats()
	r := OpenLoopResult{
		Alg:            c.Alg,
		Pattern:        c.Pattern,
		RateMs:         c.RateMs,
		Offered:        s.Offered,
		Completed:      s.Completed,
		Dropped:        s.Dropped,
		Lost:           s.Lost,
		Backlog:        s.Backlog + s.Inflight,
		PeakWorkers:    s.PeakWorkers,
		SpawnedWorkers: s.SpawnedWorkers,
		PeakQueue:      s.PeakQueue,
		Stalled:        s.Stalled,
		Deadlocked:     out.deadlocked,
		DeadlockDump:   out.dump,
		TraceDigest:    out.digest,
		TraceEvents:    out.events,
		Series:         out.series,
	}
	if window := s.ClosedAt; window > 0 {
		secs := float64(window) / (sim.TicksPerMicrosecond * 1e6)
		r.OfferedPerSec = float64(s.Offered) / secs
		r.AchievedPerSec = float64(s.Completed) / secs
	}
	us := sim.TicksPerMicrosecond
	if s.Resp.Count > 0 {
		r.RespP50US = float64(s.Resp.Quantile(0.50)) / us
		r.RespP95US = float64(s.Resp.Quantile(0.95)) / us
		r.RespP99US = float64(s.Resp.Quantile(0.99)) / us
		r.RespP999US = float64(s.Resp.Quantile(0.999)) / us
		r.RespMeanUS = s.Resp.Mean() / us
	}
	if s.Wait.Count > 0 {
		r.WaitMeanUS = s.Wait.Mean() / us
	}
	return r, nil
}

// OpenLoopGridCfg is a scenario grid: arrival pattern × offered rate ×
// lock algorithm, all cells on the same machine shape.
type OpenLoopGridCfg struct {
	Config      sim.Config
	Patterns    []string
	RatesMs     []float64
	Algs        []string
	Duration    sim.Time
	Seed        uint64
	Parallel    int
	QueueCap    int
	Locks       int
	ServiceMean sim.Time
	Trace       bool
	Window      sim.Time
}

// OpenLoopGrid fans the grid out through the parallel sweep engine.
// Results are in pattern-major, rate-then-alg order regardless of
// worker count; each cell builds its own machine and generator, so the
// outcome is bit-identical at any Parallel.
func OpenLoopGrid(g OpenLoopGridCfg) ([]OpenLoopResult, error) {
	np, nr, na := len(g.Patterns), len(g.RatesMs), len(g.Algs)
	n := np * nr * na
	if n == 0 {
		return nil, fmt.Errorf("harness: empty open-loop grid")
	}
	label := func(i int) string {
		return fmt.Sprintf("%s/r%g/%s", g.Patterns[i/(nr*na)], g.RatesMs[i/na%nr], g.Algs[i%na])
	}
	results, errs := ParallelMapLabeled(g.Parallel, n, "openloop", label, func(i int) (OpenLoopResult, error) {
		p := i / (nr * na)
		rIdx := i / na % nr
		a := i % na
		return RunOpenLoop(OpenLoopCfg{
			Config:      g.Config,
			Alg:         g.Algs[a],
			Pattern:     g.Patterns[p],
			RateMs:      g.RatesMs[rIdx],
			Duration:    g.Duration,
			Seed:        g.Seed + uint64(i)*1_000_003,
			QueueCap:    g.QueueCap,
			Locks:       g.Locks,
			ServiceMean: g.ServiceMean,
			Trace:       g.Trace,
			Window:      g.Window,
		})
	})
	if err := FirstError(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// OpenLoopCellName names a grid cell for reports and golden fixtures.
// Single-algorithm reports omit the algorithm component so that two
// such reports — one per algorithm — align run-for-run under
// `flexreport -gate` (the A/B comparison at the saturation knee).
func OpenLoopCellName(r OpenLoopResult, multiAlg bool) string {
	name := fmt.Sprintf("openloop/%s/r%g", r.Pattern, r.RateMs)
	if multiAlg {
		name += "/" + r.Alg
	}
	return name
}

// OpenLoopSummary renders a cell as Summary-line pairs.
func OpenLoopSummary(r OpenLoopResult) []KV {
	kvs := []KV{
		KVf("pattern", "%s", r.Pattern),
		KVf("alg", "%s", r.Alg),
		KVf("rate_per_ms", "%g", r.RateMs),
		KVf("offered_per_sec", "%.0f", r.OfferedPerSec),
		KVf("achieved_per_sec", "%.0f", r.AchievedPerSec),
		KVf("completed", "%d", r.Completed),
		KVf("dropped", "%d", r.Dropped),
		KVf("lost", "%d", r.Lost),
		KVf("backlog", "%d", r.Backlog),
		KVf("peak_workers", "%d", r.PeakWorkers),
		KVf("peak_queue", "%d", r.PeakQueue),
		KVf("resp_p50_us", "%.2f", r.RespP50US),
		KVf("resp_p95_us", "%.2f", r.RespP95US),
		KVf("resp_p99_us", "%.2f", r.RespP99US),
		KVf("resp_p999_us", "%.2f", r.RespP999US),
		KVf("stalled", "%t", r.Stalled),
		KVf("deadlocked", "%t", r.Deadlocked),
	}
	if r.TraceEvents > 0 {
		kvs = append(kvs, KVf("digest", "%016x", r.TraceDigest))
	}
	return kvs
}

// OpenLoopMetrics flattens a cell into the report metric map (same
// fixed-key-set convention as Metrics).
func OpenLoopMetrics(r OpenLoopResult) map[string]float64 {
	return map[string]float64{
		"offered_per_sec":  r.OfferedPerSec,
		"achieved_per_sec": r.AchievedPerSec,
		"completed":        float64(r.Completed),
		"dropped":          float64(r.Dropped),
		"lost":             float64(r.Lost),
		"backlog":          float64(r.Backlog),
		"peak_workers":     float64(r.PeakWorkers),
		"peak_queue":       float64(r.PeakQueue),
		"resp_p50_us":      r.RespP50US,
		"resp_p95_us":      r.RespP95US,
		"resp_p99_us":      r.RespP99US,
		"resp_p999_us":     r.RespP999US,
		"resp_mean_us":     r.RespMeanUS,
		"wait_mean_us":     r.WaitMeanUS,
	}
}

// AddOpenLoop appends an open-loop run entry to a report.
func (rep *Report) AddOpenLoop(name string, r OpenLoopResult) {
	run := RunReport{
		Name:    name,
		Alg:     r.Alg,
		Metrics: OpenLoopMetrics(r),
		Series:  r.Series,
	}
	if r.TraceEvents > 0 {
		run.Digest = fmt.Sprintf("%016x", r.TraceDigest)
	}
	rep.Runs = append(rep.Runs, run)
}
