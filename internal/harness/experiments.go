package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/locks"
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

// averageRuns runs fn over o.Seeds seeds and averages throughput/latency.
func averageRuns(o ExpOptions, fn func(seed uint64) (Result, error)) (Result, error) {
	var acc Result
	var lat, ops, fair float64
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
		lat += r.MeanLatUS
		ops += r.OpsPerSec
		fair += r.Fairness
	}
	acc.MeanLatUS = lat / float64(o.Seeds)
	acc.OpsPerSec = ops / float64(o.Seeds)
	acc.Fairness = fair / float64(o.Seeds)
	return acc, nil
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

func cell(w io.Writer, v float64, crashed bool) {
	if crashed {
		fmt.Fprintf(w, " %10s", "crash")
		return
	}
	fmt.Fprintf(w, " %10.2f", v)
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
	label := func(r, c int) string { return fmt.Sprintf("%s/t%d", o.Algs[r], threads[c]) }
	grid, err := runGrid(o.Parallel, len(o.Algs), len(threads), o.expLabel("fig2"), label, func(r, c int) (Result, error) {
		cc := RunCfg{
			Config: cfg, Alg: o.Algs[r], Threads: threads[c],
			Duration: o.Duration, Observe: o.Metrics, Window: o.Window,
		}
		res, err := averageRuns(o, func(seed uint64) (Result, error) {
			cc.Seed = seed
			return RunSharedMem(cc, 100)
		})
		if err != nil {
			return res, fmt.Errorf("%s @%d threads: %w", o.Algs[r], threads[c], err)
		}
		return res, nil
	})
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("shared-memory-access microbenchmark, %s (%d contexts)", machine, cfg.NumCPUs), threads, unit)
	baseline := make(map[int]float64)
	for r, alg := range o.Algs {
		if alg == "blocking" {
			for c, t := range threads {
				baseline[t] = grid[r][c].MeanLatUS
			}
		}
	}
	for row, alg := range o.Algs {
		fmt.Fprintf(w, "%-14s", alg)
		for col, t := range threads {
			r := grid[row][col]
			v := r.MeanLatUS
			if normalize && baseline[t] > 0 {
				v = r.MeanLatUS / baseline[t]
			}
			cell(w, v, r.Crashed)
			o.report(fmt.Sprintf("%s/t%d", alg, t), r)
		}
		fmt.Fprintln(w)
		maybeMetrics(o, w, alg, grid[row][len(threads)-1])
	}
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
		var sweep []int
		workers := 0
		if concurrent {
			workers = cfg.NumCPUs / 2 // 52 on Intel, 256 on AMD (scaled)
			sweep = threadSweep(cfg.NumCPUs)
			header(w, fmt.Sprintf("%s + %d worker threads, sweep = concurrent busy-waiting threads (%d contexts)",
				machine, workers, cfg.NumCPUs), sweep, "throughput (Mops/s)")
		} else {
			sweep = threadSweep(cfg.NumCPUs)
			header(w, fmt.Sprintf("%s, sweep = worker threads (%d contexts)", machine, cfg.NumCPUs),
				sweep, "throughput (Mops/s)")
		}
		label := func(row, col int) string {
			if concurrent {
				return fmt.Sprintf("%s/s%d", o.Algs[row], sweep[col])
			}
			return fmt.Sprintf("%s/t%d", o.Algs[row], sweep[col])
		}
		grid, err := runGrid(o.Parallel, len(o.Algs), len(sweep), o.expLabel("app"), label, func(row, col int) (Result, error) {
			c := RunCfg{Config: cfg, Alg: o.Algs[row], Duration: o.Duration, Observe: o.Metrics, Window: o.Window}
			if concurrent {
				c.Threads, c.Spinners = workers, sweep[col]
			} else {
				c.Threads = sweep[col]
			}
			r, err := averageRuns(o, func(seed uint64) (Result, error) {
				c.Seed = seed
				return noEnv(runClosed(c, work))
			})
			if err != nil {
				return r, fmt.Errorf("%s @%d: %w", o.Algs[row], sweep[col], err)
			}
			return r, nil
		})
		if err != nil {
			return err
		}
		for row, alg := range o.Algs {
			fmt.Fprintf(w, "%-14s", alg)
			for col := range sweep {
				r := grid[row][col]
				cell(w, r.OpsPerSec/1e6, r.Crashed)
				if concurrent {
					o.report(fmt.Sprintf("%s/s%d", alg, sweep[col]), r)
				} else {
					o.report(fmt.Sprintf("%s/t%d", alg, sweep[col]), r)
				}
			}
			fmt.Fprintln(w)
			maybeMetrics(o, w, alg, grid[row][len(sweep)-1])
		}
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
	for _, s := range subs {
		for _, g := range gaps {
			fmt.Fprintf(w, " %11s", fmt.Sprintf("%s/gap%d", s.name, g))
		}
	}
	fmt.Fprintln(w)
	label := func(row, col int) string {
		s, g := subs[col/len(gaps)], gaps[col%len(gaps)]
		return fmt.Sprintf("%s/%s-gap%d", o.Algs[row], s.name, g)
	}
	grid, err := runGrid(o.Parallel, len(o.Algs), len(subs)*len(gaps), o.expLabel("fig5b"), label, func(row, col int) (Result, error) {
		s, g := subs[col/len(gaps)], gaps[col%len(gaps)]
		threads := int(float64(cfg.NumCPUs) * s.ratio)
		return averageRuns(o, func(seed uint64) (Result, error) {
			return RunSharedMem(RunCfg{
				Config: cfg, Alg: o.Algs[row], Threads: threads,
				Duration: o.Duration, Seed: seed, Window: o.Window,
			}, g)
		})
	})
	if err != nil {
		return err
	}
	for row, alg := range o.Algs {
		fmt.Fprintf(w, "%-14s", alg)
		for col := range grid[row] {
			cell(w, grid[row][col].Fairness, grid[row][col].Crashed)
			s, g := subs[col/len(gaps)], gaps[col%len(gaps)]
			o.report(fmt.Sprintf("%s/%s-gap%d", alg, s.name, g), grid[row][col])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runFig5c prints total spin-loop iterations per algorithm across the
// thread sweep.
func runFig5c(o ExpOptions, w io.Writer) error {
	o = o.withDefaults()
	base, _ := MachineConfig("intel")
	cfg := ScaleConfig(base, o.Scale)
	threads := threadSweep(cfg.NumCPUs)
	label := func(row, col int) string { return fmt.Sprintf("%s/t%d", o.Algs[row], threads[col]) }
	grid, err := runGrid(o.Parallel, len(o.Algs), len(threads), o.expLabel("fig5c"), label, func(row, col int) (Result, error) {
		return averageRuns(o, func(seed uint64) (Result, error) {
			return RunSharedMem(RunCfg{
				Config: cfg, Alg: o.Algs[row], Threads: threads[col],
				Duration: o.Duration, Seed: seed, Observe: o.Metrics,
				Window: o.Window,
			}, 100)
		})
	})
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("spin-loop iterations, sharedmem, intel (%d contexts)", cfg.NumCPUs),
		threads, "spin iterations (millions)")
	for row, alg := range o.Algs {
		fmt.Fprintf(w, "%-14s", alg)
		for col := range threads {
			cell(w, float64(grid[row][col].SpinIters)/1e6, grid[row][col].Crashed)
			o.report(fmt.Sprintf("%s/t%d", alg, threads[col]), grid[row][col])
		}
		fmt.Fprintln(w)
		maybeMetrics(o, w, alg, grid[row][len(threads)-1])
	}
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
	off := stats.Summarize(offs).Mean
	on := stats.Summarize(ons).Mean
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
					Config: cfg, Alg: "flexguard", Threads: threads,
					Duration: o.Duration, Seed: seed, PerLock: i == 1,
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
					Config: cfg, Alg: "flexguard", Threads: threads,
					Duration: o.Duration, Seed: seed, BlockingMCSExit: i == 1,
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

// maybeMetrics prints the lock telemetry of an algorithm row's last cell
// (the highest contention point of the sweep) when -metrics is on.
func maybeMetrics(o ExpOptions, w io.Writer, alg string, r Result) {
	if !o.Metrics || r.Crashed || len(r.PerLock) == 0 {
		return
	}
	fmt.Fprintf(w, "# lock metrics for %s (last cell of the row):\n", alg)
	r.WriteLockMetrics(w)
}

// Describe prints the experiment catalog.
func Describe(w io.Writer) {
	for _, e := range Experiments() {
		fmt.Fprintf(w, "  %-18s %s\n", e.ID, e.Description)
	}
}

// ParseAlgs splits a comma-separated algorithm list, validating names.
func ParseAlgs(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	for _, p := range parts {
		if p == "flexguard" || p == "flexguard-ext" {
			continue
		}
		if _, err := locks.Lookup(p); err != nil {
			return nil, err
		}
	}
	return parts, nil
}
