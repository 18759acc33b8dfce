// Package cliflags is the simulation commands' shared flag check: a
// flag the chosen mode would silently ignore is a usage error (exit 2)
// naming the flag and the mode, never a quiet no-op.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"slices"
)

// prof is the profiling pair, read in every mode that runs a sweep.
var prof = []string{"cpuprofile", "memprofile"}

// modes lists, per command, the flags each mode reads, the mode's own
// selector included.
var modes = map[string]map[string][]string{
	"faultbench": {
		// -replay and -mutants run one fixed job each; -crash sweeps the
		// fixed fault.CrashPlans with no flight recorder.
		"replay":  append([]string{"replay"}, prof...),
		"mutants": append([]string{"mutants"}, prof...),
		"crash":   append([]string{"crash", "algs", "seeds", "quick", "parallel", "report"}, prof...),
		"sweep":   append([]string{"algs", "plans", "seeds", "quick", "parallel", "window", "report"}, prof...),
	},
	"flexbench": {
		"list":       {"list"},
		"sweepsmoke": append([]string{"sweepsmoke", "parallel", "report"}, prof...),
		"experiment": append([]string{"experiment", "scale", "duration", "seeds", "algs", "metrics", "parallel", "window", "report", "warm"}, prof...),
		"all":        append([]string{"all", "scale", "duration", "seeds", "algs", "metrics", "parallel", "window", "report", "warm"}, prof...),
	},
	"loadbench": {
		// -quick fixes the patterns, rates, algorithms and duration.
		"quick": {"quick", "machine", "cpus", "seed", "queue", "locks", "service", "parallel", "window", "report"},
		"grid":  {"patterns", "rates", "algs", "machine", "cpus", "duration", "seed", "queue", "locks", "service", "parallel", "window", "report"},
	},
	"simtrace": {
		// -races replays a recorded file; nothing is simulated.
		"replay": {"races"},
		"run":    {"alg", "cpus", "threads", "duration", "events", "seed", "rawtrace", "perfetto", "capacity", "record", "mutant", "window", "report"},
	},
}

// moot maps, per command, a flag to the one that overrides it when both
// are set.
var moot = map[string]map[string]string{
	"faultbench": {"seeds": "quick"}, // -quick runs one seed
	"flexbench":  {"warm": "window"}, // the flight recorder cannot ride a snapshot
}

// Check exits with status 2 if the command line set a flag that cmd's
// chosen mode would ignore.
func Check(cmd, mode string) {
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := check(cmd, mode, set); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		os.Exit(2)
	}
}

func check(cmd, mode string, set []string) error {
	for _, name := range set {
		if !slices.Contains(modes[cmd][mode], name) {
			return fmt.Errorf("-%s has no effect in %s mode", name, mode)
		}
		if by := moot[cmd][name]; by != "" && slices.Contains(set, by) {
			return fmt.Errorf("-%s has no effect in %s mode with -%s", name, mode, by)
		}
	}
	return nil
}
