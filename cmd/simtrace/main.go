// Command simtrace runs the shared-memory-access microbenchmark with a
// chosen lock and prints the context-switch / preemption trace the
// Preemption Monitor sees — the tool to use when studying why a lock
// behaves the way it does under a given subscription level.
//
// Usage:
//
//	simtrace -alg flexguard -cpus 8 -threads 16 -duration 5000000
//	simtrace -alg flexguard -perfetto trace.json   # open in ui.perfetto.dev
//	simtrace -mutant tas-noatomic -races           # audit the run for data races
//
// With -races the run exits 1 on any race, after every other artifact
// is written.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/cliflags"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/sim"
	"repro/internal/workloads/sharedmem"
)

func main() {
	var (
		alg      = flag.String("alg", "flexguard", "lock algorithm")
		cpus     = flag.Int("cpus", 8, "hardware contexts")
		threads  = flag.Int("threads", 16, "worker threads")
		duration = flag.Int64("duration", 5_000_000, "virtual ticks to run")
		events   = flag.Int("events", 40, "max trace lines to print")
		seed     = flag.Uint64("seed", 1, "random seed")
		rawTrace = flag.Int("rawtrace", 0, "also dump this many raw scheduler trace events")
		perfetto = flag.String("perfetto", "", "write the run's event trace as Perfetto/Chrome trace_event JSON to this file")
		capacity = flag.Int("capacity", 1<<20, "ring-buffer capacity for the -perfetto trace (newest events kept)")
		races    = flag.Bool("races", false, "audit the run with the virtual-time race auditor and print its verdicts")
		mutant   = flag.String("mutant", "", "run a fault mutant (see internal/fault) in place of -alg, on its own machine with its provoking plan applied")
		window   = flag.Int64("window", 0, "flight-recorder sampling window in virtual ticks (0 = off); with -perfetto, series render as counter tracks")
		report   = flag.String("report", "", "write a machine-readable run report (JSON) to this file")
	)
	flag.Parse()
	cliflags.Check("simtrace", "run")

	// A mutant's catalog row picks its machine, and its provoking plan
	// is applied.
	lock := *alg
	var plan fault.Plan
	if *mutant != "" {
		mu, ok := fault.MutantByName(*mutant)
		if !ok {
			fmt.Fprintf(os.Stderr, "simtrace: unknown mutant %q (have %v)\n", *mutant, harness.Names(harness.Mutant))
			os.Exit(1)
		}
		lock, plan = mu.Name, mu.Plan
	} else if _, err := harness.Lookup(lock); err != nil {
		fmt.Fprintln(os.Stderr, "simtrace:", err)
		os.Exit(1)
	}

	cfg := sim.Intel()
	cfg.NumCPUs = *cpus
	cfg.Seed = *seed
	env, err := harness.NewEnv(harness.EnvOptions{Config: cfg, Alg: lock, Observe: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simtrace:", err)
		os.Exit(1)
	}
	m := env.M
	var auditor *check.RaceAuditor
	if *races {
		auditor = check.AttachRace(m, check.RaceOptions{})
	}
	var ts *timeseries.Sampler
	if *window > 0 {
		ts = timeseries.Attach(m, timeseries.Options{
			Window:        sim.Time(*window),
			ExpectWindows: int(sim.Time(*duration)*5/4/sim.Time(*window)) + 1,
		})
	}
	var tracer *sim.Tracer
	switch {
	case *perfetto != "":
		max := *capacity
		if *rawTrace > max {
			max = *rawTrace
		}
		tracer = m.AttachTracer(max)
	case *rawTrace > 0:
		tracer = m.AttachTracer(*rawTrace)
	}

	printed := 0
	var switches, preemptInCS int64
	m.RegisterSwitchHook(func(prev, next *sim.Thread) {
		switches++
		inCS := prev != nil && (prev.CSCounter > 0 || prev.MonitorMark)
		if inCS {
			preemptInCS++
		}
		if printed >= *events {
			return
		}
		printed++
		name := func(t *sim.Thread) string {
			if t == nil {
				return "idle"
			}
			return fmt.Sprintf("%s#%d(cs=%d,region=%d)", t.Name(), t.ID(), t.CSCounter, t.Region)
		}
		fmt.Printf("%12d sched_switch %-34s -> %s\n", m.Now(), name(prev), name(next))
	})

	fault.Apply(m, env.Mon, plan, *seed)
	sharedmem.Build(m, sharedmem.Options{
		Threads:  *threads,
		Deadline: sim.Time(*duration),
		NewLock:  env.NewLock,
	})
	quiesced := m.Run(sim.Time(*duration) * 5 / 4)
	var series *timeseries.Series
	if ts != nil {
		series = ts.Finish(quiesced)
		fmt.Printf("flight recorder: %d windows of %d ticks\n", len(series.Points), series.Window)
	}

	fmt.Printf("\nsummary: %d context switches, %d involved a thread in a critical section\n",
		switches, preemptInCS)
	if env.Mon != nil {
		fmt.Printf("monitor: %d in-CS preemptions detected, %d reschedules, num_preempted_cs=%d at end\n",
			env.Mon.InCSPreemptions, env.Mon.Reschedules, env.Mon.NPCS().V())
		fmt.Printf("policy:  %d spin->block switches, %d block->spin switches\n",
			env.Mon.SpinToBlockSwitches, env.Mon.BlockToSpinSwitches)
	}
	var ops, spins int64
	for i, th := range m.Threads() {
		if i >= *threads {
			break
		}
		ops += th.Ops
		spins += th.SpinIters
	}
	fmt.Printf("workers: %d ops, %d spin iterations, %d preemptions total\n",
		ops, spins, m.TotalPreemptions)
	r := env.Collect(*threads, sim.Time(*duration))
	r.Series = series
	fmt.Printf("\nlock metrics (times in µs):\n")
	r.WriteLockMetrics(os.Stdout)
	if tracer != nil && *rawTrace > 0 {
		fmt.Printf("\nraw scheduler trace (%d events, %d dropped):\n",
			len(tracer.Events()), tracer.Dropped)
		tracer.Dump(os.Stdout, *rawTrace)
	}
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simtrace:", err)
			os.Exit(1)
		}
		var counters []obs.CounterTrack
		if series != nil {
			counters = series.CounterTracks()
		}
		if err := obs.WritePerfettoTrace(f, m, tracer.Events(), counters); err != nil {
			fmt.Fprintln(os.Stderr, "simtrace:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "simtrace:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (%d events, %d evicted from the ring); open in ui.perfetto.dev\n",
			*perfetto, len(tracer.Events()), tracer.Dropped)
	}
	if *report != "" {
		rep := harness.NewReport("simtrace", cfg, *seed, sim.Time(*window))
		rep.Add(fmt.Sprintf("simtrace/%s/t%d", lock, *threads), r)
		if err := rep.WriteFile(*report); err != nil {
			fmt.Fprintln(os.Stderr, "simtrace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote report %s\n", *report)
	}
	if auditor != nil {
		printRaces(auditor, quiesced)
	}
	// A drain before the deadline with threads still parked is a hang;
	// waiters stranded at shutdown are a benign end-of-run artifact.
	// Reported after the trace is written so the evidence survives.
	if quiesced < sim.Time(*duration) && m.Deadlocked() {
		fmt.Fprintf(os.Stderr, "simtrace: DEADLOCK\n%s", m.DeadlockReport())
		os.Exit(1)
	}
	if auditor != nil && auditor.Total > 0 {
		os.Exit(1)
	}
}

// printRaces runs the auditor's end-of-run scan and prints each verdict
// with both access sites and their virtual timestamps.
func printRaces(a *check.RaceAuditor, quiesced sim.Time) {
	races := a.Finish(quiesced)
	fmt.Printf("\nrace audit:\n")
	for i, r := range races {
		fmt.Printf("race %d: %s\n", i+1, r)
		if r.Other >= 0 {
			fmt.Printf("  access pair: thread %d at t=%d  vs  thread %d at t=%d\n",
				r.Thread, r.ThreadAt, r.Other, r.OtherAt)
		} else {
			fmt.Printf("  access: thread %d waiting since t=%d, no signaling write ever arrived\n",
				r.Thread, r.ThreadAt)
		}
	}
	if a.Total > int64(len(races)) {
		fmt.Printf("(%d further race(s) beyond the storage cap)\n", a.Total-int64(len(races)))
	}
	fmt.Printf("total: %d race(s)\n", a.Total)
}
