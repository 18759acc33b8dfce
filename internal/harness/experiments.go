package harness

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads/hackbench"
	"repro/internal/workloads/kvstore"
)

// ExpOptions tunes how experiments run. Defaults regenerate every figure
// at a scale that completes in minutes; Scale=1 with long durations
// approaches the paper's full sweeps.
type ExpOptions struct {
	// Scale shrinks machines and thread counts together (default 0.25:
	// the "Intel" profile becomes 26 contexts, "AMD" 128).
	Scale float64
	// Duration of each measured run in ticks (default 20M ≈ 9 ms).
	Duration sim.Time
	// Seeds is the number of repetitions averaged per point (default 1;
	// the paper averages 50 runs).
	Seeds int
	// Algs overrides the algorithm list.
	Algs []string
	// Metrics attaches the lock-event observer to every run and prints a
	// per-lock telemetry block after each algorithm row (flexbench
	// -metrics).
	Metrics bool
	// Parallel is the number of OS threads sweep cells fan out across
	// (flexbench -parallel). Values below 1 mean GOMAXPROCS. Per-cell
	// results are identical at any setting; only wall-clock changes.
	Parallel int
	// Window attaches the flight recorder to every run with this
	// sampling window in ticks (flexbench -window); 0 = off.
	Window sim.Time
	// Report, when non-nil, collects every grid cell as a RunReport
	// named "<ReportPrefix>/<alg>/<cell>" (flexbench -report). Cells are
	// added after each grid completes, in row-major order, from the one
	// goroutine printing the figure — no locking needed.
	Report *Report
	// ReportPrefix namespaces this experiment's runs in the report,
	// conventionally the experiment ID. It doubles as the pprof
	// "experiment" label on sweep cells.
	ReportPrefix string
}

// expLabel picks the pprof experiment label: the report prefix when one
// was set, the experiment's own fallback otherwise.
func (o ExpOptions) expLabel(fallback string) string {
	if o.ReportPrefix != "" {
		return o.ReportPrefix
	}
	return fallback
}

// report records one cell into o.Report, if reporting is on.
func (o ExpOptions) report(name string, r Result) {
	if o.Report == nil {
		return
	}
	if o.ReportPrefix != "" {
		name = o.ReportPrefix + "/" + name
	}
	o.Report.Add(name, r)
}

func (o ExpOptions) withDefaults() ExpOptions {
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	if o.Duration == 0 {
		o.Duration = 20_000_000
	}
	if o.Seeds == 0 {
		o.Seeds = 1
	}
	if len(o.Algs) == 0 {
		o.Algs = Algorithms
	}
	return o
}

// Experiment regenerates one of the paper's figures or tables.
type Experiment struct {
	ID          string
	Description string
	Run         func(o ExpOptions, w io.Writer) error
}

// Experiments returns the full catalog, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Fig 1: normalized CS execution time vs threads (Intel, sharedmem)", runFig2Norm("intel")},
		{"fig2a", "Fig 2a: normalized CS execution time (Intel, sharedmem)", runFig2Norm("intel")},
		{"fig2b", "Fig 2b: normalized CS execution time (AMD, sharedmem)", runFig2Norm("amd")},
		{"fig2c", "Fig 2c: raw CS execution time in µs (Intel, sharedmem)", runFig2Raw("intel")},
		{"fig2d", "Fig 2d: raw CS execution time in µs (AMD, sharedmem)", runFig2Raw("amd")},
		{"fig3a", "Fig 3a: hash-table throughput vs threads (Intel)", runApp("intel", false, hashtableWork)},
		{"fig3b", "Fig 3b: hash-table + concurrent spinners (Intel)", runApp("intel", true, hashtableWork)},
		{"fig3c", "Fig 3c: hash-table throughput vs threads (AMD)", runApp("amd", false, hashtableWork)},
		{"fig3d", "Fig 3d: hash-table + concurrent spinners (AMD)", runApp("amd", true, hashtableWork)},
		{"fig3e", "Fig 3e: DB index throughput vs threads (Intel)", runApp("intel", false, dbindexWork)},
		{"fig3f", "Fig 3f: DB index + concurrent spinners (Intel)", runApp("intel", true, dbindexWork)},
		{"fig3g", "Fig 3g: DB index throughput vs threads (AMD)", runApp("amd", false, dbindexWork)},
		{"fig3h", "Fig 3h: DB index + concurrent spinners (AMD)", runApp("amd", true, dbindexWork)},
		{"fig3i", "Fig 3i: Dedup throughput vs threads (Intel)", runApp("intel", false, dedupWork)},
		{"fig3j", "Fig 3j: Dedup + concurrent spinners (Intel)", runApp("intel", true, dedupWork)},
		{"fig3k", "Fig 3k: Dedup throughput vs threads (AMD)", runApp("amd", false, dedupWork)},
		{"fig3l", "Fig 3l: Dedup + concurrent spinners (AMD)", runApp("amd", true, dedupWork)},
		{"fig3m", "Fig 3m: Raytrace throughput vs threads (Intel)", runApp("intel", false, raytraceWork)},
		{"fig3n", "Fig 3n: Raytrace + concurrent spinners (Intel)", runApp("intel", true, raytraceWork)},
		{"fig3o", "Fig 3o: Raytrace throughput vs threads (AMD)", runApp("amd", false, raytraceWork)},
		{"fig3p", "Fig 3p: Raytrace + concurrent spinners (AMD)", runApp("amd", true, raytraceWork)},
		{"fig3q", "Fig 3q: Streamcluster throughput vs threads (Intel)", runApp("intel", false, streamclusterWork)},
		{"fig3r", "Fig 3r: Streamcluster + concurrent spinners (Intel)", runApp("intel", true, streamclusterWork)},
		{"fig3s", "Fig 3s: Streamcluster throughput vs threads (AMD)", runApp("amd", false, streamclusterWork)},
		{"fig3t", "Fig 3t: Streamcluster + concurrent spinners (AMD)", runApp("amd", true, streamclusterWork)},
		{"fig4a", "Fig 4a: LevelDB readrandom vs threads (Intel)", runApp("intel", false, kvWork(kvstore.ReadRandom))},
		{"fig4b", "Fig 4b: LevelDB readrandom + spinners (Intel)", runApp("intel", true, kvWork(kvstore.ReadRandom))},
		{"fig4c", "Fig 4c: LevelDB readrandom vs threads (AMD)", runApp("amd", false, kvWork(kvstore.ReadRandom))},
		{"fig4d", "Fig 4d: LevelDB readrandom + spinners (AMD)", runApp("amd", true, kvWork(kvstore.ReadRandom))},
		{"fig4e", "Fig 4e: LevelDB fillrandom vs threads (Intel)", runApp("intel", false, kvWork(kvstore.FillRandom))},
		{"fig4f", "Fig 4f: LevelDB fillrandom + spinners (Intel)", runApp("intel", true, kvWork(kvstore.FillRandom))},
		{"fig4g", "Fig 4g: LevelDB fillrandom vs threads (AMD)", runApp("amd", false, kvWork(kvstore.FillRandom))},
		{"fig4h", "Fig 4h: LevelDB fillrandom + spinners (AMD)", runApp("amd", true, kvWork(kvstore.FillRandom))},
		{"fig5a", "Fig 5a: runnable threads over time (Intel, 1.35× subscription)", runFig5a},
		{"fig5b", "Fig 5b: fairness factor by subscription and CS gap", runFig5b},
		{"fig5c", "Fig 5c: spin-loop iterations per lock algorithm", runFig5c},
		{"overhead", "§5.4: Preemption Monitor overhead on Hackbench", runOverhead},
		{"ablation-perlock", "§3.2.2 ablation: per-lock vs system-wide counter", runAblationPerLock},
		{"ablation-mcsexit", "§3.2.1 ablation: blocking-aware mcs_exit", runAblationMCSExit},
	}
}

// FindExperiment looks an experiment up by ID.
func FindExperiment(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// threadSweep returns the benchmark thread counts for a machine with n
// contexts: the paper sweeps from 1 to 2.5× the context count.
func threadSweep(n int) []int {
	fracs := []float64{0.05, 0.125, 0.25, 0.5, 0.75, 1.0, 1.15, 1.35, 1.75, 2.5}
	out := make([]int, 0, len(fracs))
	seen := map[int]bool{}
	for _, f := range fracs {
		t := int(float64(n) * f)
		if t < 1 {
			t = 1
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// averageRuns runs fn over o.Seeds seeds and returns the seed mean of
// every metric a figure prints or Metrics reports, rounding integer
// counters down. Per-run artifacts — the trace digest, the flight-recorder
// series, the per-lock table and its hold/handover summaries — are the
// last seed's.
func averageRuns(o ExpOptions, fn func(seed uint64) (Result, error)) (Result, error) {
	var acc, sum Result
	for s := 0; s < o.Seeds; s++ {
		r, err := fn(uint64(1000*s + 7))
		if err != nil {
			return r, err
		}
		if r.Deadlocked {
			// A deadlock must fail the whole experiment loudly, not show
			// up as a row of suspiciously low numbers.
			return r, fmt.Errorf("%s @%d threads deadlocked:\n%s", r.Alg, r.Threads, r.DeadlockDump)
		}
		if r.Crashed {
			return r, nil
		}
		acc = r
		sf, rf := meanFloats(&sum), meanFloats(&r)
		for i := range sf {
			*sf[i] += *rf[i]
		}
		sc, rc := meanCounts(&sum), meanCounts(&r)
		for i := range sc {
			*sc[i] += *rc[i]
		}
	}
	sf, af := meanFloats(&sum), meanFloats(&acc)
	for i := range af {
		*af[i] = *sf[i] / float64(o.Seeds)
	}
	sc, ac := meanCounts(&sum), meanCounts(&acc)
	for i := range ac {
		*ac[i] = *sc[i] / int64(o.Seeds)
	}
	return acc, nil
}

// meanFloats and meanCounts list the Result fields averageRuns averages.
func meanFloats(r *Result) []*float64 {
	return []*float64{&r.OpsPerSec, &r.MeanLatUS, &r.P99LatUS, &r.Fairness}
}

func meanCounts(r *Result) []*int64 {
	return []*int64{
		&r.Ops, &r.SpinIters, &r.Preempt, &r.CSPreempt, &r.PolicySpinToBlock, &r.PolicyBlockToSpin,
		&r.Acquires, &r.Handovers, &r.SpinStarts, &r.Blocks, &r.Wakes, &r.SpinToBlock, &r.BlockToSpin,
	}
}

func header(w io.Writer, title string, threads []int, unit string) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "# rows: lock algorithm; columns: threads; cells: %s\n", unit)
	fmt.Fprintf(w, "%-14s", "alg\\threads")
	for _, t := range threads {
		fmt.Fprintf(w, " %10d", t)
	}
	fmt.Fprintln(w)
}

// colNames names a sweep's columns: prefix followed by each point.
func colNames(prefix string, points []int) []string {
	out := make([]string, len(points))
	for i, p := range points {
		out[i] = fmt.Sprintf("%s%d", prefix, p)
	}
	return out
}

// sweep runs a figure's grid: one row per algorithm and one column per
// entry of cols. cell gives a cell's run and workload; its Result is the
// seed mean over o.Seeds. A cell's name, <alg>/<col>, is its pprof label,
// its report entry (see rows) and the prefix of its error. exp is the
// pprof experiment label when no ReportPrefix is set.
func (o ExpOptions) sweep(exp string, cols []string, cell func(alg string, col int) (RunCfg, workload)) ([][]Result, error) {
	n := len(cols)
	name := func(i int) string { return o.Algs[i/n] + "/" + cols[i%n] }
	flat, errs := ParallelMapLabeled(o.Parallel, len(o.Algs)*n, o.expLabel(exp), name, func(i int) (Result, error) {
		c, work := cell(o.Algs[i/n], i%n)
		r, err := averageRuns(o, func(seed uint64) (Result, error) {
			c.Seed = seed
			return noEnv(runClosed(c, work))
		})
		if err != nil {
			err = fmt.Errorf("%s: %w", name(i), err)
		}
		return r, err
	})
	if err := FirstError(errs); err != nil {
		return nil, err
	}
	grid := make([][]Result, len(o.Algs))
	for r := range grid {
		grid[r] = flat[r*n : (r+1)*n]
	}
	return grid, nil
}

// rows prints a swept grid, one row per algorithm: value's reading of
// each cell, or "crash". It reports every cell under its <alg>/<col>
// name and, with Metrics on, follows each row with the lock table of its
// last cell, the highest contention point of the sweep.
func (o ExpOptions) rows(w io.Writer, cols []string, grid [][]Result, value func(r Result, col int) float64) {
	for row, alg := range o.Algs {
		fmt.Fprintf(w, "%-14s", alg)
		for col, r := range grid[row] {
			if r.Crashed {
				fmt.Fprintf(w, " %10s", "crash")
			} else {
				fmt.Fprintf(w, " %10.2f", value(r, col))
			}
			o.report(alg+"/"+cols[col], r)
		}
		fmt.Fprintln(w)
		if last := grid[row][len(cols)-1]; o.Metrics && !last.Crashed && len(last.PerLock) > 0 {
			fmt.Fprintf(w, "# lock metrics for %s (last cell of the row):\n", alg)
			last.WriteLockMetrics(w)
		}
	}
}

// runFig2Norm builds the Figure 1/2a/2b generator: mean CS execution time
// normalized to the pure blocking lock.
func runFig2Norm(machine string) func(ExpOptions, io.Writer) error {
	return func(o ExpOptions, w io.Writer) error {
		return fig2(machine, true, o, w)
	}
}

// runFig2Raw builds the Figure 2c/2d generator (raw µs).
func runFig2Raw(machine string) func(ExpOptions, io.Writer) error {
	return func(o ExpOptions, w io.Writer) error {
		return fig2(machine, false, o, w)
	}
}

func fig2(machine string, normalize bool, o ExpOptions, w io.Writer) error {
	o = o.withDefaults()
	base, err := MachineConfig(machine)
	if err != nil {
		return err
	}
	cfg := ScaleConfig(base, o.Scale)
	threads := threadSweep(cfg.NumCPUs)
	unit := "mean CS execution time (µs)"
	if normalize {
		unit = "CS execution time normalized to the blocking lock"
	}
	header(w, fmt.Sprintf("shared-memory-access microbenchmark, %s (%d contexts)", machine, cfg.NumCPUs), threads, unit)
	cols := colNames("t", threads)
	grid, err := o.sweep("fig2", cols, func(alg string, col int) (RunCfg, workload) {
		return RunCfg{
			Config: cfg, Alg: alg, Threads: threads[col],
			Duration: o.Duration, Observe: o.Metrics, Window: o.Window,
		}, sharedmemWork(100)
	})
	if err != nil {
		return err
	}
	value := func(r Result, _ int) float64 { return r.MeanLatUS }
	if b := slices.Index(o.Algs, "blocking"); normalize && b >= 0 {
		value = func(r Result, col int) float64 {
			if base := grid[b][col].MeanLatUS; base > 0 {
				return r.MeanLatUS / base
			}
			return r.MeanLatUS
		}
	}
	o.rows(w, cols, grid, value)
	if normalize {
		fmt.Fprintln(w, "# note: values are normalized to the 'blocking' row;")
		fmt.Fprintln(w, "# without it in -algs, raw µs are printed instead.")
	}
	return nil
}

// runApp builds a Figure-3/4 style generator: application throughput
// vs thread count (standalone), or vs concurrent-spinner count at a
// fixed half-context worker count (concurrent).
func runApp(machine string, concurrent bool, work workload) func(ExpOptions, io.Writer) error {
	return func(o ExpOptions, w io.Writer) error {
		o = o.withDefaults()
		base, err := MachineConfig(machine)
		if err != nil {
			return err
		}
		cfg := ScaleConfig(base, o.Scale)
		points := threadSweep(cfg.NumCPUs)
		workers, cols := 0, colNames("t", points)
		if concurrent {
			workers, cols = cfg.NumCPUs/2, colNames("s", points) // 52 on Intel, 256 on AMD (scaled)
			header(w, fmt.Sprintf("%s + %d worker threads, sweep = concurrent busy-waiting threads (%d contexts)",
				machine, workers, cfg.NumCPUs), points, "throughput (Mops/s)")
		} else {
			header(w, fmt.Sprintf("%s, sweep = worker threads (%d contexts)", machine, cfg.NumCPUs),
				points, "throughput (Mops/s)")
		}
		grid, err := o.sweep("app", cols, func(alg string, col int) (RunCfg, workload) {
			c := RunCfg{Config: cfg, Alg: alg, Threads: points[col], Duration: o.Duration, Observe: o.Metrics, Window: o.Window}
			if concurrent {
				c.Threads, c.Spinners = workers, points[col]
			}
			return c, work
		})
		if err != nil {
			return err
		}
		o.rows(w, cols, grid, func(r Result, _ int) float64 { return r.OpsPerSec / 1e6 })
		return nil
	}
}

// runFig5a prints the runnable-thread timeline for MCS, the blocking lock
// and FlexGuard at 1.35× subscription (the paper's 140 threads on 104
// contexts).
func runFig5a(o ExpOptions, w io.Writer) error {
	o = o.withDefaults()
	base, _ := MachineConfig("intel")
	cfg := ScaleConfig(base, o.Scale)
	threads := cfg.NumCPUs * 135 / 100
	fmt.Fprintf(w, "# runnable threads over time, %d threads on %d contexts\n", threads, cfg.NumCPUs)
	fmt.Fprintf(w, "# 40 samples across the run; the paper's Figure 5a\n")
	algs := []string{"mcs", "blocking", "flexguard"}
	type envRes struct {
		e *Env
		r Result
	}
	envs, errs := ParallelMapLabeled(o.Parallel, len(algs), o.expLabel("fig5a"),
		func(i int) string { return algs[i] },
		func(i int) (envRes, error) {
			e, r, err := RunSharedMemEnv(RunCfg{
				Config: cfg, Alg: algs[i], Threads: threads,
				Duration: o.Duration, Seed: 7, RecordRunnable: true,
				Window: o.Window,
			}, 100)
			return envRes{e, r}, err
		})
	if err := FirstError(errs); err != nil {
		return err
	}
	for i, alg := range algs {
		o.report(fmt.Sprintf("%s/t%d", alg, threads), envs[i].r)
		tl := envs[i].e.M.RunnableTimeline()
		samples := tl.Sample(0, o.Duration, 40)
		min, max, _ := tl.MinMax(o.Duration/10, o.Duration)
		fmt.Fprintf(w, "%-10s min=%3d max=%3d mean=%6.1f series=%v\n",
			alg, min, max, tl.TimeWeightedMean(o.Duration/10, o.Duration), samples)
	}
	return nil
}

// runFig5b prints Dice fairness factors across subscription ratios and
// inter-CS delays.
func runFig5b(o ExpOptions, w io.Writer) error {
	o = o.withDefaults()
	base, _ := MachineConfig("intel")
	cfg := ScaleConfig(base, o.Scale)
	subs := []struct {
		name  string
		ratio float64
	}{{"0.5x", 0.5}, {"1x", 1.0}, {"2x", 2.0}}
	gaps := []sim.Time{100, 1_000, 10_000}
	fmt.Fprintf(w, "# Dice fairness factor (0.5 = fair, 1 = unfair), %d contexts\n", cfg.NumCPUs)
	fmt.Fprintf(w, "%-14s", "alg")
	var cols []string
	for _, s := range subs {
		for _, g := range gaps {
			fmt.Fprintf(w, " %11s", fmt.Sprintf("%s/gap%d", s.name, g))
			cols = append(cols, fmt.Sprintf("%s-gap%d", s.name, g))
		}
	}
	fmt.Fprintln(w)
	grid, err := o.sweep("fig5b", cols, func(alg string, col int) (RunCfg, workload) {
		s, g := subs[col/len(gaps)], gaps[col%len(gaps)]
		return RunCfg{
			Config: cfg, Alg: alg, Threads: int(float64(cfg.NumCPUs) * s.ratio),
			Duration: o.Duration, Window: o.Window,
		}, sharedmemWork(g)
	})
	if err != nil {
		return err
	}
	o.rows(w, cols, grid, func(r Result, _ int) float64 { return r.Fairness })
	return nil
}

// runFig5c prints total spin-loop iterations per algorithm across the
// thread sweep.
func runFig5c(o ExpOptions, w io.Writer) error {
	o = o.withDefaults()
	base, _ := MachineConfig("intel")
	cfg := ScaleConfig(base, o.Scale)
	threads := threadSweep(cfg.NumCPUs)
	header(w, fmt.Sprintf("spin-loop iterations, sharedmem, intel (%d contexts)", cfg.NumCPUs),
		threads, "spin iterations (millions)")
	cols := colNames("t", threads)
	grid, err := o.sweep("fig5c", cols, func(alg string, col int) (RunCfg, workload) {
		return RunCfg{
			Config: cfg, Alg: alg, Threads: threads[col],
			Duration: o.Duration, Observe: o.Metrics, Window: o.Window,
		}, sharedmemWork(100)
	})
	if err != nil {
		return err
	}
	o.rows(w, cols, grid, func(r Result, _ int) float64 { return float64(r.SpinIters) / 1e6 })
	return nil
}

// runOverhead reproduces §5.4: hackbench runtime with the Preemption
// Monitor attached vs detached.
func runOverhead(o ExpOptions, w io.Writer) error {
	o = o.withDefaults()
	base, _ := MachineConfig("intel")
	cfg := ScaleConfig(base, o.Scale)
	opts := hackbench.Options{Groups: 6, Pairs: 8, Messages: 300}
	type pair struct{ off, on float64 }
	pairs, errs := ParallelMapLabeled(o.Parallel, o.Seeds, o.expLabel("overhead"),
		func(s int) string { return fmt.Sprintf("hackbench/seed%d", s) },
		func(s int) (pair, error) {
			off, on, err := RunHackbench(cfg, uint64(7+s), opts)
			return pair{float64(off), float64(on)}, err
		})
	if err := FirstError(errs); err != nil {
		return err
	}
	var offs, ons []float64
	for _, p := range pairs {
		offs = append(offs, p.off)
		ons = append(ons, p.on)
	}
	off, on := stats.Mean(offs), stats.Mean(ons)
	if o.Report != nil {
		prefix := o.ReportPrefix
		if prefix == "" {
			prefix = "overhead"
		}
		o.Report.AddMetrics(prefix+"/hackbench", map[string]float64{
			"runtime_off_ticks": off,
			"runtime_on_ticks":  on,
			"overhead_pct":      (on - off) / off * 100,
		})
	}
	fmt.Fprintf(w, "# Hackbench (%d groups × %d pairs × %d msgs, %d threads) on %d contexts\n",
		opts.Groups, opts.Pairs, opts.Messages, 2*opts.Groups*opts.Pairs, cfg.NumCPUs)
	fmt.Fprintf(w, "monitor off: %12.0f ticks (%.3f ms)\n", off, off/sim.TicksPerMicrosecond/1000)
	fmt.Fprintf(w, "monitor on:  %12.0f ticks (%.3f ms)\n", on, on/sim.TicksPerMicrosecond/1000)
	fmt.Fprintf(w, "overhead:    %12.2f %%   (paper: < 1%%)\n", (on-off)/off*100)
	return nil
}

// runAblationPerLock reproduces §3.2.2's claim that a per-lock
// num_preempted_cs counter performs worse than the system-wide one.
func runAblationPerLock(o ExpOptions, w io.Writer) error {
	o = o.withDefaults()
	base, _ := MachineConfig("intel")
	cfg := ScaleConfig(base, o.Scale)
	threads := cfg.NumCPUs * 2
	fmt.Fprintf(w, "# hash-table (multiple locks), %d threads on %d contexts (2× oversubscribed)\n",
		threads, cfg.NumCPUs)
	res, errs := ParallelMapLabeled(o.Parallel, 2, o.expLabel("ablation-perlock"),
		func(i int) string { return []string{"system-wide", "per-lock"}[i] },
		func(i int) (Result, error) {
			return averageRuns(o, func(seed uint64) (Result, error) {
				return RunHashTable(RunCfg{
					Config: cfg, Alg: [2]string{"flexguard", "flexguard/per-lock"}[i], Threads: threads,
					Duration: o.Duration, Seed: seed,
				})
			})
		})
	if err := FirstError(errs); err != nil {
		return err
	}
	for i, name := range []string{"system-wide counter", "per-lock counters "} {
		fmt.Fprintf(w, "%s: %8.3f Mops/s\n", name, res[i].OpsPerSec/1e6)
	}
	o.report("system-wide", res[0])
	o.report("per-lock", res[1])
	return nil
}

// runAblationMCSExit reproduces §3.2.1's note that the blocking-aware
// mcs_exit loop brings no gains.
func runAblationMCSExit(o ExpOptions, w io.Writer) error {
	o = o.withDefaults()
	base, _ := MachineConfig("intel")
	cfg := ScaleConfig(base, o.Scale)
	threads := cfg.NumCPUs * 2
	fmt.Fprintf(w, "# sharedmem, %d threads on %d contexts (2× oversubscribed)\n", threads, cfg.NumCPUs)
	res, errs := ParallelMapLabeled(o.Parallel, 2, o.expLabel("ablation-mcsexit"),
		func(i int) string { return []string{"spin-exit", "blocking-mcs-exit"}[i] },
		func(i int) (Result, error) {
			return averageRuns(o, func(seed uint64) (Result, error) {
				return RunSharedMem(RunCfg{
					Config: cfg, Alg: [2]string{"flexguard", "flexguard/blocking-mcs-exit"}[i], Threads: threads,
					Duration: o.Duration, Seed: seed,
				}, 100)
			})
		})
	if err := FirstError(errs); err != nil {
		return err
	}
	for i, name := range []string{"shipped mcs_exit (spin only)     ", "ablation: blocking-aware mcs_exit"} {
		fmt.Fprintf(w, "%s: mean CS time %8.2f µs\n", name, res[i].MeanLatUS)
	}
	o.report("spin-exit", res[0])
	o.report("blocking-mcs-exit", res[1])
	return nil
}

// Describe prints the experiment catalog.
func Describe(w io.Writer) {
	for _, e := range Experiments() {
		fmt.Fprintf(w, "  %-18s %s\n", e.ID, e.Description)
	}
}

// ParseAlgs splits a comma-separated algorithm list, validating names.
// A repeated name is an error: it would name two table rows, and two
// report runs, the same.
func ParseAlgs(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	for i, p := range parts {
		if slices.Contains(parts[:i], p) {
			return nil, fmt.Errorf("harness: algorithm %q listed twice", p)
		}
		if _, err := Lookup(p); err != nil {
			return nil, err
		}
	}
	return parts, nil
}
