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
	"strings"

	"repro/internal/check"
	"repro/internal/cliflags"
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
	cliflags.Check("faultbench", mode)

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
	}
	algs, quickAlgs := harness.Algorithms, []string{"blocking", "mcs", "flexguard"}
	if mode == "crash" {
		algs, quickAlgs = harness.CrashAlgorithms(), []string{"blocking", "mcs", "mcstp", "flexguard", "robust/blocking", "robust/mcs"}
	}
	if *quick {
		algs, *seeds = quickAlgs, 1
	}
	if *algsFlag != "" {
		if algs, err = harness.ParseAlgs(*algsFlag); err != nil {
			fatal(err)
		}
	}
	cp := campaign{algs: algs, seeds: *seeds, parallel: *parallel, window: sim.Time(*window), report: *report}
	if mode == "crash" {
		exit(runCrash(cp))
	}
	cp.plans = fault.Plans()
	if *plansFlag != "" {
		cp.plans = nil
		for _, s := range strings.Split(*plansFlag, ",") {
			p, err := fault.ParsePlan(s)
			if err != nil {
				fatal(err)
			}
			cp.plans = append(cp.plans, fault.NamedPlan{Name: s, Plan: p})
		}
	}
	exit(runSweep(cp))
}

// campaign is one faultbench table: a cell per (algorithm, plan) pair,
// each cell run over seeds seeds.
type campaign struct {
	algs     []string
	plans    []fault.NamedPlan
	seeds    int
	parallel int
	window   sim.Time
	report   string // report file path; "" writes none
}

// cellResult is one campaign cell's outcome.
type cellResult struct {
	text    string // the table entry
	failed  bool
	repro   string // replay spec of the failing seed
	metrics map[string]float64
}

// run drives a campaign. Cells fan out across the worker pool (each cell
// runs its seeds on its own isolated machines); the table prints in
// order once all cells land, with one report entry per cell named
// <kind>/<alg>/<plan>. Then come the failing cells' reproducers (under
// the heading repros) or a note that every cell ended clean, and the
// Summary line. tool names the report and the Summary line. It returns
// the exit status.
func (cp campaign) run(tool, kind, clean, repros string, cell func(alg string, np fault.NamedPlan) (cellResult, error)) int {
	n := len(cp.plans)
	label := func(i int) string { return cp.algs[i/n] + "/" + cp.plans[i%n].Name }
	cells, errs := harness.ParallelMapLabeled(cp.parallel, len(cp.algs)*n, tool, label, func(i int) (cellResult, error) {
		return cell(cp.algs[i/n], cp.plans[i%n])
	})
	if err := harness.FirstError(errs); err != nil {
		fatal(err)
	}
	fmt.Printf("%-16s", "alg\\plan")
	for _, np := range cp.plans {
		fmt.Printf(" %14s", np.Name)
	}
	fmt.Println()
	rep := harness.NewToolReport(tool, cp.window)
	var specs []string
	for i, alg := range cp.algs {
		fmt.Printf("%-16s", alg)
		for j, np := range cp.plans {
			c := cells[i*n+j]
			fmt.Printf(" %14s", c.text)
			rep.AddMetrics(kind+"/"+alg+"/"+np.Name, c.metrics)
			if c.failed {
				specs = append(specs, fmt.Sprintf("%s × %s: %s", alg, np.Name, c.repro))
			}
		}
		fmt.Println()
	}
	if cp.report != "" {
		if err := rep.WriteFile(cp.report); err != nil {
			fatal(err)
		}
	}
	code := 0
	if len(specs) > 0 {
		fmt.Printf("\n%d failing cell(s); %s:\n", len(specs), repros)
		for _, s := range specs {
			fmt.Println("  " + s)
		}
		code = 1
	} else {
		fmt.Printf("\nall %d cells %s (%d seeds each)\n", len(cells), clean, cp.seeds)
	}
	fmt.Println(harness.SummaryLine(
		harness.KV{Key: "tool", Value: tool},
		harness.KVf("cells", "%d", len(cells)),
		harness.KVf("failures", "%d", len(specs)),
		harness.KVf("seeds", "%d", cp.seeds),
		harness.KVf("window", "%d", cp.window),
	))
	return code
}

// runSweep is the fault campaign: every algorithm must hold every
// invariant under every plan. A cell's first failing seed is shrunk and
// printed as a replay spec.
func runSweep(cp campaign) int {
	return cp.run("faultbench", "fault", "clean", "shrunk reproducers", func(alg string, np fault.NamedPlan) (cellResult, error) {
		out := cellResult{text: "ok"}
		var ops int64
		for s := 0; s < cp.seeds && !out.failed; s++ {
			c := harness.FuzzCfg{Alg: alg, Seed: uint64(1000*s + 17), Plan: np.Plan, Window: cp.window}
			r, err := harness.Fuzz(c)
			if err != nil {
				return cellResult{}, err
			}
			ops += r.Ops
			if r.Failed() || r.Deadlocked || r.HitGrace {
				min, res, err := harness.ShrinkFailure(c)
				if err != nil {
					return cellResult{}, err
				}
				out.text, out.failed, out.repro = "FAIL", true, min.Replay()
				if !res.Failed() {
					out.repro = c.Replay() + "  (shrink lost it; original spec)"
				}
			}
		}
		out.metrics = map[string]float64{"ok": b2f(!out.failed), "seeds": float64(cp.seeds), "ops": float64(ops)}
		return out, nil
	})
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

// runCrash is the crash campaign over fault.CrashPlans: kill threads
// while they hold, queue on, or park under every lock, and demand that
// every cell ends in recovery or a clean orphaned-lock verdict — never a
// hang and never a mutual-exclusion loss. The robust wrappers and
// flexguard additionally must *recover* from every crash-while-holding
// cell. A cell reports its worst seed.
func runCrash(cp campaign) int {
	cp.plans = fault.CrashPlans()
	return cp.run("faultbench-crash", "crash", "recovered or orphaned cleanly", "reproducers", func(alg string, np fault.NamedPlan) (cellResult, error) {
		verdict, spec := crashClean, ""
		var crashes, abandoned int64
		for s := 0; s < cp.seeds; s++ {
			c := harness.FuzzCfg{Alg: alg, Seed: uint64(1000*s + 29), Plan: np.Plan}
			r, err := harness.Fuzz(c)
			if err != nil {
				return cellResult{}, err
			}
			crashes += r.Crashes
			abandoned += r.Abandoned
			if v := classifyCrash(r); v > verdict {
				verdict, spec = v, c.Replay()
			}
		}
		fail := verdict == crashFail || mustRecover(alg, np.Name) && verdict != crashRecover
		text := crashVerdictNames[verdict]
		if fail {
			text = "FAIL(" + text + ")"
		}
		return cellResult{text, fail, spec, map[string]float64{
			"verdict":   float64(verdict),
			"ok":        b2f(!fail),
			"crashes":   float64(crashes),
			"abandoned": float64(abandoned),
		}}, nil
	})
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
