// Command loadbench runs open-loop traffic scenarios: arrival-driven
// load where the worker pool — and so the subscription level — is an
// emergent property of offered rate versus service capacity, not a
// thread-count knob. Each cell prints a Summary line with SLO-style
// response-latency percentiles and offered vs. achieved throughput; the
// -report file is a flexguard-report/v1 document `flexreport -gate` can
// A/B against a baseline (e.g. FlexGuard vs. blocking at the saturation
// knee).
//
// Usage:
//
//	loadbench -patterns poisson,bursty -rates 100,400,800
//	loadbench -algs flexguard,blocking,mcstp -rates 800 -report knee.json
//	loadbench -quick -parallel 4
//	loadbench -machine small -cpus 8 -window 500000 -report grid.json
//
// Grid cells fan out across -parallel OS threads; each cell owns an
// isolated simulated machine, so output is byte-identical at any
// -parallel value. -quick fixes the patterns, rates, algorithms and
// duration, so setting any of those next to it exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	var (
		patternsFlag = flag.String("patterns", "poisson,bursty", "comma-separated arrival patterns (poisson, bursty, diurnal, antagonist)")
		ratesFlag    = flag.String("rates", "100,400,800", "comma-separated offered rates, requests per virtual millisecond")
		algsFlag     = flag.String("algs", "flexguard,blocking,mcstp", "comma-separated lock algorithms")
		machine      = flag.String("machine", "small", "machine profile (intel, amd, small)")
		cpus         = flag.Int("cpus", 0, "override hardware context count (0 = profile default)")
		duration     = flag.Int64("duration", 20_000_000, "generation window in virtual ticks (~2200 ticks/µs)")
		seed         = flag.Uint64("seed", 7, "base seed; each cell derives its own")
		queueCap     = flag.Int("queue", 0, "request queue capacity (0 = engine default 1024)")
		nlocks       = flag.Int("locks", 0, "lock stripes requests spread over (0 = 1 hot lock)")
		service      = flag.Int64("service", 0, "mean service time in ticks (0 = engine default 22000 ≈ 10µs)")
		parallel     = flag.Int("parallel", 0, "grid cells run on this many OS threads (0 = GOMAXPROCS); output is identical at any setting")
		window       = flag.Int64("window", 0, "flight-recorder window in ticks (0 = off); series, with the queue-depth gauge, land in -report")
		report       = flag.String("report", "", "write a flexguard-report/v1 JSON report to this file")
		quick        = flag.Bool("quick", false, "tiny CI grid: poisson+bursty × 100,800 × flexguard,blocking, short window")
	)
	flag.Parse()
	mode := "grid"
	if *quick {
		mode = "quick"
	}
	cliflags.Check("loadbench", mode)

	g := harness.OpenLoopGridCfg{
		Patterns:    splitList(*patternsFlag),
		RatesMs:     nil,
		Algs:        splitList(*algsFlag),
		Duration:    sim.Time(*duration),
		Seed:        *seed,
		Parallel:    *parallel,
		QueueCap:    *queueCap,
		Locks:       *nlocks,
		ServiceMean: sim.Time(*service),
		Window:      sim.Time(*window),
	}
	for _, f := range splitList(*ratesFlag) {
		r, err := strconv.ParseFloat(f, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -rates entry %q: %w", f, err))
		}
		g.RatesMs = append(g.RatesMs, r)
	}
	if *quick {
		g.Patterns = []string{"poisson", "bursty"}
		g.RatesMs = []float64{100, 800}
		g.Algs = []string{"flexguard", "blocking"}
		g.Duration = 8_000_000
	}
	for _, p := range g.Patterns {
		if _, err := traffic.New(p, 1, 1000); err != nil {
			fatal(err)
		}
	}
	cfg, err := harness.MachineConfig(*machine)
	if err != nil {
		fatal(err)
	}
	if *cpus > 0 {
		cfg.NumCPUs = *cpus
	} else if *machine == "small" {
		cfg.NumCPUs = 4
	}
	g.Config = cfg

	results, err := harness.OpenLoopGrid(g)
	if err != nil {
		fatal(err)
	}

	multiAlg := len(g.Algs) > 1
	rep := harness.NewReport("loadbench", cfg, g.Seed, g.Window)
	deadlocked := 0
	for _, r := range results {
		name := harness.OpenLoopCellName(r, multiAlg)
		fmt.Printf("%s %s\n", name, harness.SummaryLine(harness.OpenLoopSummary(r)...))
		rep.AddOpenLoop(name, r)
		if r.Deadlocked {
			deadlocked++
			fmt.Fprintf(os.Stderr, "loadbench: %s deadlocked:\n%s\n", name, r.DeadlockDump)
		}
	}
	if *report != "" {
		if err := rep.WriteFile(*report); err != nil {
			fatal(err)
		}
	}
	fmt.Println(harness.SummaryLine(
		harness.KV{Key: "tool", Value: "loadbench"},
		harness.KVf("cells", "%d", len(results)),
		harness.KVf("patterns", "%s", strings.Join(g.Patterns, ",")),
		harness.KVf("algs", "%s", strings.Join(g.Algs, ",")),
		harness.KVf("duration", "%d", int64(g.Duration)),
		harness.KVf("seed", "%d", g.Seed),
		harness.KVf("deadlocked", "%d", deadlocked),
	))
	if deadlocked > 0 {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadbench:", err)
	os.Exit(1)
}
