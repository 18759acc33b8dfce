// Command flexbench regenerates the paper's figures and tables on the
// simulator. Each experiment prints the same rows/series the corresponding
// figure reports (see DESIGN.md for the experiment index).
//
// Usage:
//
//	flexbench -list
//	flexbench -experiment fig2a
//	flexbench -experiment fig3a -scale 0.5 -duration 50000000 -seeds 3
//	flexbench -experiment fig2a -algs blocking,mcs,flexguard
//	flexbench -experiment fig2a -parallel 8
//	flexbench -experiment fig2a -window 500000 -report fig2a.json
//	flexbench -all
//
// Sweep cells fan out across -parallel OS threads (default GOMAXPROCS);
// every cell owns an isolated simulated machine, so per-cell results
// are bit-for-bit identical at any -parallel value.
//
// Scale 1.0 with long durations approaches the paper's full sweeps; the
// defaults finish each figure in minutes on a laptop.
//
// -list, -sweepsmoke, -all and -experiment select the mode; a flag the
// mode ignores (say -experiment next to -all) exits 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/harness"
	"repro/internal/profiling"
	"repro/internal/sim"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list the available experiments")
		exp        = flag.String("experiment", "", "experiment id to run (see -list)")
		all        = flag.Bool("all", false, "run every experiment")
		scale      = flag.Float64("scale", 0.25, "machine scale factor (1.0 = the paper's 104/512 contexts)")
		duration   = flag.Int64("duration", 20_000_000, "virtual ticks per measured run (~2200 ticks/µs)")
		seeds      = flag.Int("seeds", 1, "repetitions averaged per data point (paper: 50)")
		algsFlag   = flag.String("algs", "", "comma-separated algorithm subset (default: the paper's ten)")
		metrics    = flag.Bool("metrics", false, "collect per-lock telemetry and print it after each algorithm row")
		parallel   = flag.Int("parallel", 0, "sweep cells run on this many OS threads (0 = GOMAXPROCS); per-cell results are identical at any setting")
		window     = flag.Int64("window", 0, "flight-recorder sampling window in virtual ticks (0 = off); series land in the -report file")
		report     = flag.String("report", "", "write a machine-readable run report (JSON) to this file")
		sweepsmoke = flag.Int("sweepsmoke", 0, "measure sweep-engine throughput over this many repetitions of the canonical cell set and exit (CI gate; metrics land in -report)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	switch {
	case *list:
		cliflags.Check("flexbench", "list")
	case *sweepsmoke > 0:
		cliflags.Check("flexbench", "sweepsmoke")
	case *all:
		cliflags.Check("flexbench", "all")
	case *exp != "":
		cliflags.Check("flexbench", "experiment")
	}

	if *list {
		fmt.Println("experiments:")
		harness.Describe(os.Stdout)
		return
	}
	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()
	// fatal os.Exits and would skip the profile flush; stop first.
	die := func(err error) {
		stopProf()
		fatal(err)
	}
	algs, err := harness.ParseAlgs(*algsFlag)
	if err != nil {
		die(err)
	}
	// Cells are always collected (cheap: the Results are in memory
	// anyway) so the Summary line can report the cell count; the file is
	// only written when -report is set.
	rep := harness.NewToolReport("flexbench", sim.Time(*window))
	opts := harness.ExpOptions{
		Scale:    *scale,
		Duration: sim.Time(*duration),
		Seeds:    *seeds,
		Algs:     algs,
		Metrics:  *metrics,
		Parallel: *parallel,
		Window:   sim.Time(*window),
		Report:   rep,
	}
	expName := *exp
	switch {
	case *sweepsmoke > 0:
		expName = "sweepsmoke"
		if err := harness.SweepSmoke(*sweepsmoke, *parallel, rep, os.Stdout); err != nil {
			die(err)
		}
	case *all:
		expName = "all"
		for _, e := range harness.Experiments() {
			fmt.Printf("==== %s: %s ====\n", e.ID, e.Description)
			eo := opts
			eo.ReportPrefix = e.ID
			if err := e.Run(eo, os.Stdout); err != nil {
				die(fmt.Errorf("%s: %w", e.ID, err))
			}
			fmt.Println()
		}
	case *exp != "":
		e, err := harness.FindExperiment(*exp)
		if err != nil {
			die(err)
		}
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Description)
		eo := opts
		eo.ReportPrefix = e.ID
		if err := e.Run(eo, os.Stdout); err != nil {
			die(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "flexbench: pass -experiment <id>, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}
	if *report != "" {
		if err := rep.WriteFile(*report); err != nil {
			die(err)
		}
	}
	fmt.Println(harness.SummaryLine(
		harness.KV{Key: "tool", Value: "flexbench"},
		harness.KV{Key: "exp", Value: expName},
		harness.KVf("scale", "%g", *scale),
		harness.KVf("duration", "%d", *duration),
		harness.KVf("seeds", "%d", *seeds),
		harness.KVf("window", "%d", *window),
		harness.KVf("cells", "%d", len(rep.Runs)),
	))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexbench:", err)
	os.Exit(1)
}
