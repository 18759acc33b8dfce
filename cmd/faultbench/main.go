// Command faultbench sweeps lock algorithms across fault-injection
// plans under the invariant checker — the CLI face of the robustness
// campaign. A failing (alg, plan, seed) triple is shrunk to a minimal
// one-line replay spec that reproduces the violation deterministically:
//
//	faultbench                                   # default sweep
//	faultbench -algs flexguard,mcs -plans chaos  # narrow it
//	faultbench -crash                            # thread-crash campaign
//	faultbench -mutants                          # checker self-test
//	faultbench -replay "seed=1 mutant=tas-noatomic cpus=3 threads=2 horizon=375308 plan=none"
//
// Exit status: 0 when every stock algorithm held every invariant (and,
// with -mutants, every mutant was caught; with -crash, every cell ended
// in recovery or a deterministic orphaned-lock verdict and the robust
// locks recovered from every holder crash); 1 otherwise; 2 when a set
// flag has no effect in the chosen mode.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/profiling"
	"repro/internal/sim"
)

func main() {
	var (
		algsFlag   = flag.String("algs", "", "comma-separated algorithms (default: the §5.1 set)")
		plansFlag  = flag.String("plans", "", "comma-separated fault-plan presets or specs (default: all presets)")
		seeds      = flag.Int("seeds", 3, "seeds per (alg, plan) cell")
		quick      = flag.Bool("quick", false, "1 seed, core algorithms only (CI smoke)")
		crash      = flag.Bool("crash", false, "run the thread-crash campaign (fault.CrashPlans sweep, crash-aware verdicts)")
		mutants    = flag.Bool("mutants", false, "run the mutation self-test instead of the sweep")
		replay     = flag.String("replay", "", "replay one spec (as printed for a shrunk failure) and exit")
		parallel   = flag.Int("parallel", 0, "sweep cells run on this many OS threads (0 = GOMAXPROCS)")
		window     = flag.Int64("window", 0, "flight-recorder sampling window in virtual ticks (0 = off)")
		report     = flag.String("report", "", "write a machine-readable sweep report (JSON) to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	mode := "sweep"
	switch {
	case *replay != "":
		mode = "replay"
	case *mutants:
		mode = "mutants"
	case *crash:
		mode = "crash"
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkFlags(mode, set); err != nil {
		fmt.Fprintln(os.Stderr, "faultbench:", err)
		os.Exit(2)
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	// The sub-commands report their verdict through the exit status, so
	// flush the profiles before exiting rather than via defer.
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fatal(err)
		}
		os.Exit(code)
	}

	switch mode {
	case "replay":
		exit(runReplay(*replay))
	case "mutants":
		exit(runMutants())
	case "crash":
		algs := harness.CrashAlgorithms()
		if *quick {
			algs = []string{"blocking", "mcs", "mcstp", "flexguard", "robust/blocking", "robust/mcs"}
			*seeds = 1
		}
		if *algsFlag != "" {
			if algs, err = harness.ParseAlgs(*algsFlag); err != nil {
				fatal(err)
			}
		}
		exit(runCrash(algs, *seeds, *parallel, *report))
	}

	algs := harness.Algorithms
	if *quick {
		algs = []string{"blocking", "mcs", "flexguard"}
		*seeds = 1
	}
	if *algsFlag != "" {
		if algs, err = harness.ParseAlgs(*algsFlag); err != nil {
			fatal(err)
		}
	}
	plans := fault.Plans()
	if *plansFlag != "" {
		plans = nil
		for _, s := range strings.Split(*plansFlag, ",") {
			p, err := fault.ParsePlan(s)
			if err != nil {
				fatal(err)
			}
			plans = append(plans, fault.NamedPlan{Name: s, Plan: p})
		}
	}
	exit(runSweep(algs, plans, *seeds, *parallel, sim.Time(*window), *report))
}

// modeFlags names the flags each mode reads besides its own selector and
// the profiling flags, which every mode honors. -replay and -mutants run
// one fixed job each; -crash sweeps the fixed fault.CrashPlans with no
// flight recorder, so it reads neither -plans nor -window.
var modeFlags = map[string][]string{
	"replay":  nil,
	"mutants": nil,
	"crash":   {"algs", "seeds", "quick", "parallel", "report"},
	"sweep":   {"algs", "plans", "seeds", "quick", "parallel", "window", "report"},
}

// checkFlags rejects a command line that sets a flag the chosen mode
// would silently ignore: one the mode does not read, a second mode's
// selector, or -seeds next to -quick, which fixes one seed.
func checkFlags(mode string, set []string) error {
	for _, name := range set {
		switch {
		case name == mode || name == "cpuprofile" || name == "memprofile":
		case !slices.Contains(modeFlags[mode], name):
			return fmt.Errorf("-%s has no effect in %s mode", name, mode)
		case name == "seeds" && slices.Contains(set, "quick"):
			return fmt.Errorf("-seeds has no effect with -quick, which runs one seed")
		}
	}
	return nil
}

// cellOutcome is one (alg, plan) cell of the sweep table.
type cellOutcome struct {
	ok   bool
	spec string
	ops  int64 // total ops across the cell's seeds
}

// runSweep is the campaign: every algorithm must hold every invariant
// under every plan. Cells fan out across the worker pool (each cell
// runs its seeds, and shrinks its first failure, on its own isolated
// machines); the table prints in order once all cells land. Failures
// are shrunk and printed as replay specs.
func runSweep(algs []string, plans []fault.NamedPlan, seeds, parallel int, window sim.Time, reportPath string) int {
	label := func(i int) string {
		return algs[i/len(plans)] + "/" + plans[i%len(plans)].Name
	}
	cells, errs := harness.ParallelMapLabeled(parallel, len(algs)*len(plans), "faultbench", label, func(i int) (cellOutcome, error) {
		alg, np := algs[i/len(plans)], plans[i%len(plans)]
		var out cellOutcome
		for s := 0; s < seeds; s++ {
			c := harness.FuzzCfg{Alg: alg, Seed: uint64(1000*s + 17), Plan: np.Plan, Window: window}
			r, err := harness.Fuzz(c)
			if err != nil {
				return cellOutcome{}, err
			}
			out.ops += r.Ops
			if r.Failed() || r.Deadlocked || r.HitGrace {
				min, res, err := harness.ShrinkFailure(c)
				if err != nil {
					return cellOutcome{}, err
				}
				spec := min.Replay()
				if !res.Failed() {
					spec = c.Replay() + "  (shrink lost it; original spec)"
				}
				out.spec = fmt.Sprintf("%s × %s: %s", alg, np.Name, spec)
				return out, nil
			}
		}
		out.ok = true
		return out, nil
	})
	if err := harness.FirstError(errs); err != nil {
		fatal(err)
	}
	fmt.Printf("%-16s", "alg\\plan")
	for _, np := range plans {
		fmt.Printf(" %14s", np.Name)
	}
	fmt.Println()
	rep := harness.NewToolReport("faultbench", window)
	failures := 0
	var specs []string
	for i, alg := range algs {
		fmt.Printf("%-16s", alg)
		for j, np := range plans {
			c := cells[i*len(plans)+j]
			cell := "ok"
			ok := 1.0
			if !c.ok {
				cell = "FAIL"
				ok = 0
				failures++
				specs = append(specs, c.spec)
			}
			fmt.Printf(" %14s", cell)
			rep.AddMetrics(fmt.Sprintf("fault/%s/%s", alg, np.Name), map[string]float64{
				"ok":    ok,
				"seeds": float64(seeds),
				"ops":   float64(c.ops),
			})
		}
		fmt.Println()
	}
	if reportPath != "" {
		if err := rep.WriteFile(reportPath); err != nil {
			fatal(err)
		}
	}
	summary := func(fails int) {
		fmt.Println(harness.SummaryLine(
			harness.KV{Key: "tool", Value: "faultbench"},
			harness.KVf("cells", "%d", len(algs)*len(plans)),
			harness.KVf("failures", "%d", fails),
			harness.KVf("seeds", "%d", seeds),
			harness.KVf("window", "%d", window),
		))
	}
	if failures > 0 {
		fmt.Printf("\n%d failing cell(s); shrunk reproducers:\n", failures)
		for _, s := range specs {
			fmt.Println("  " + s)
		}
		summary(failures)
		return 1
	}
	fmt.Printf("\nall %d cells clean (%d seeds each)\n", len(algs)*len(plans), seeds)
	summary(0)
	return 0
}

// crashVerdict classifies one crash-campaign run. Severity order
// matters: a cell reports the worst verdict among its seeds.
const (
	crashClean   = iota // no kill fired (the plan's trigger never armed)
	crashRecover        // killed threads, survivors finished, zero verdicts
	crashOrphan         // deterministic orphaned-lock verdict, nothing else
	crashFail           // any other violation, or a hang with no verdict
)

var crashVerdictNames = [...]string{"clean", "recover", "orphan", "FAIL"}

// classifyCrash maps one fuzz result onto the campaign's verdict scale.
// Every stock lock must land at recover or orphan (or clean if the plan
// cannot trigger on it): a hang or a non-orphan violation is a FAIL.
func classifyCrash(r harness.FuzzResult) int {
	orphaned := false
	for _, v := range r.Violations {
		if v.Invariant != check.OrphanedLock {
			return crashFail
		}
		orphaned = true
	}
	if orphaned {
		return crashOrphan
	}
	if r.Deadlocked || r.HitGrace {
		// Stranded threads with no verdict: the checker missed a hang.
		return crashFail
	}
	if r.Crashes > 0 {
		return crashRecover
	}
	return crashClean
}

// crashCell is one (alg, plan) cell of the crash campaign.
type crashCell struct {
	verdict int
	spec    string // replay spec of the worst seed
	crashes int64
	abandon int64
}

// runCrash is the crash campaign: kill threads while they hold, queue
// on, or park under every lock, and demand that every cell ends in
// recovery or a clean orphaned-lock verdict — never a hang and never a
// mutual-exclusion loss. The robust wrappers and flexguard additionally
// must *recover* from every crash-while-holding cell.
func runCrash(algs []string, seeds, parallel int, reportPath string) int {
	plans := fault.CrashPlans()
	label := func(i int) string {
		return algs[i/len(plans)] + "/" + plans[i%len(plans)].Name
	}
	cells, errs := harness.ParallelMapLabeled(parallel, len(algs)*len(plans), "faultbench-crash", label, func(i int) (crashCell, error) {
		alg, np := algs[i/len(plans)], plans[i%len(plans)]
		var out crashCell
		for s := 0; s < seeds; s++ {
			c := harness.FuzzCfg{Alg: alg, Seed: uint64(1000*s + 29), Plan: np.Plan}
			r, err := harness.Fuzz(c)
			if err != nil {
				return crashCell{}, err
			}
			out.crashes += r.Crashes
			out.abandon += r.Abandoned
			if v := classifyCrash(r); v > out.verdict {
				out.verdict = v
				out.spec = c.Replay()
			}
		}
		return out, nil
	})
	if err := harness.FirstError(errs); err != nil {
		fatal(err)
	}
	fmt.Printf("%-16s", "alg\\plan")
	for _, np := range plans {
		fmt.Printf(" %14s", np.Name)
	}
	fmt.Println()
	rep := harness.NewToolReport("faultbench-crash", 0)
	bad := 0
	var specs []string
	for i, alg := range algs {
		fmt.Printf("%-16s", alg)
		for j, np := range plans {
			c := cells[i*len(plans)+j]
			fail := c.verdict == crashFail
			if mustRecover(alg, np.Name) && c.verdict != crashRecover {
				fail = true
			}
			cell := crashVerdictNames[c.verdict]
			if fail {
				cell = "FAIL(" + crashVerdictNames[c.verdict] + ")"
				bad++
				specs = append(specs, fmt.Sprintf("%s × %s: %s", alg, np.Name, c.spec))
			}
			fmt.Printf(" %14s", cell)
			rep.AddMetrics(fmt.Sprintf("crash/%s/%s", alg, np.Name), map[string]float64{
				"verdict":   float64(c.verdict),
				"ok":        b2f(!fail),
				"crashes":   float64(c.crashes),
				"abandoned": float64(c.abandon),
			})
		}
		fmt.Println()
	}
	if reportPath != "" {
		if err := rep.WriteFile(reportPath); err != nil {
			fatal(err)
		}
	}
	fmt.Println(harness.SummaryLine(
		harness.KV{Key: "tool", Value: "faultbench-crash"},
		harness.KVf("cells", "%d", len(algs)*len(plans)),
		harness.KVf("failures", "%d", bad),
		harness.KVf("seeds", "%d", seeds),
	))
	if bad > 0 {
		fmt.Printf("\n%d failing cell(s); reproducers:\n", bad)
		for _, s := range specs {
			fmt.Println("  " + s)
		}
		return 1
	}
	fmt.Printf("\nall %d cells recovered or orphaned cleanly (%d seeds each)\n", len(algs)*len(plans), seeds)
	return 0
}

// mustRecover names the cells where an orphan verdict is itself a
// failure: the robust wrappers and flexguard exist to survive a holder
// crash, so crash-while-holding must end in recovery.
func mustRecover(alg, plan string) bool {
	if plan != "crash-hold" {
		return false
	}
	switch alg {
	case "robust/blocking", "flexguard", "flexguard-ext":
		return true
	}
	return false
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runMutants proves the checker can fail: every registered mutant must
// be caught, shrunk, and reproduced from its spec in one run. The race
// auditor must agree with the split: every mutant trips at least one
// race verdict, and the stock algorithms stay race-clean on the same
// seeds.
func runMutants() int {
	bad := 0
	for _, mu := range fault.Mutants() {
		caught, raced := false, mu.LivenessOnly
		for s := uint64(1); s <= 20 && !(caught && raced); s++ {
			c := harness.FuzzCfg{Mutant: mu.Name, Seed: s, Races: true}
			r, err := harness.Fuzz(c)
			if err != nil {
				fatal(err)
			}
			if r.RaceTotal > 0 && !raced {
				raced = true
				fmt.Printf("%-18s race auditor: %d race(s), first %s\n",
					mu.Name, r.RaceTotal, r.Races[0].Kind)
			}
			if !r.Failed() || caught {
				continue
			}
			caught = true
			min, res, err := harness.ShrinkFailure(c)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-18s caught (%s)\n", mu.Name, res.Violations[0].Invariant)
			fmt.Printf("%-18s reproducer: %s\n", "", min.Replay())
		}
		if !caught {
			fmt.Printf("%-18s NOT CAUGHT — checker is blind to %q\n", mu.Name, mu.Breaks)
			bad++
		}
		if !raced {
			fmt.Printf("%-18s NO RACE — race auditor is blind to %q\n", mu.Name, mu.Breaks)
			bad++
		}
	}
	// The other half of the split: stock locks must not trip the auditor.
	for _, alg := range []string{"blocking", "mcs", "flexguard"} {
		for s := uint64(1); s <= 3; s++ {
			r, err := harness.Fuzz(harness.FuzzCfg{Alg: alg, Seed: s, Races: true})
			if err != nil {
				fatal(err)
			}
			if r.RaceTotal > 0 {
				fmt.Printf("%-18s FALSE POSITIVE: %d race(s) at seed %d: %s\n",
					alg, r.RaceTotal, s, r.Races[0])
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	fmt.Println("all mutants caught and raced; stock algorithms race-clean")
	return 0
}

// runReplay executes one spec and reports its verdicts. Exit 1 when the
// spec reproduces a failure (the expected outcome for a reproducer).
func runReplay(spec string) int {
	c, err := harness.ParseReplay(spec)
	if err != nil {
		fatal(err)
	}
	r, err := harness.Fuzz(c)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replay: %s\n", c.Replay())
	fmt.Printf("shape: %d cpus, %d threads, horizon %d; quiesced at %d; %d ops\n",
		r.CPUs, r.Threads, r.Horizon, r.Quiesced, r.Ops)
	for _, v := range r.Violations {
		fmt.Println("  " + v.String())
	}
	if r.Deadlocked {
		fmt.Print(r.DeadlockDump)
	}
	if r.Failed() || r.Deadlocked {
		return 1
	}
	fmt.Println("no violations")
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultbench:", err)
	os.Exit(1)
}
