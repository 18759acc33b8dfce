// Package cliflags is the simulation commands' shared flag check: a
// flag the chosen mode would silently ignore, or a number outside the
// range its flag accepts, is a usage error (exit 2) naming the flag,
// never a quiet no-op, an empty result or a panic.
package cliflags

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
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
		"experiment": append([]string{"experiment", "scale", "duration", "seeds", "algs", "metrics", "parallel", "window", "report"}, prof...),
		"all":        append([]string{"all", "scale", "duration", "seeds", "algs", "metrics", "parallel", "window", "report"}, prof...),
	},
	"loadbench": {
		// -quick fixes the patterns, rates, algorithms and duration.
		"quick": {"quick", "machine", "cpus", "seed", "queue", "locks", "service", "parallel", "window", "report"},
		"grid":  {"patterns", "rates", "algs", "machine", "cpus", "duration", "seed", "queue", "locks", "service", "parallel", "window", "report"},
	},
	"simtrace": {
		"run": {"alg", "cpus", "threads", "duration", "events", "seed", "rawtrace", "perfetto", "capacity", "races", "mutant", "window", "report"},
	},
}

// moot maps, per command, a flag to the one that overrides it when both
// are set.
var moot = map[string]map[string]string{
	"faultbench": {"seeds": "quick"}, // -quick runs one seed
}

// span is a numeric flag's valid range: above lo and up to hi when
// loOpen, else at least lo (hi is +Inf).
type span struct {
	lo, hi float64
	loOpen bool
}

func (s span) String() string {
	if s.loOpen {
		return fmt.Sprintf("in (%g, %g]", s.lo, s.hi)
	}
	return fmt.Sprintf("at least %g", s.lo)
}

func (s span) holds(v float64) bool {
	return (v > s.lo || !s.loOpen && v == s.lo) && v <= s.hi
}

var (
	// positive is a count or a span of virtual ticks that must be set.
	positive = span{lo: 1, hi: math.Inf(1)}
	// orZero also accepts 0, which the flag's help text defines ("0 =
	// off", "0 = default").
	orZero = span{lo: 0, hi: math.Inf(1)}
)

// ranges maps, per command, each numeric flag to its valid range. A
// value outside it would panic deep in the simulator, or run a sweep
// that measures nothing and exits 0.
var ranges = map[string]map[string]span{
	"faultbench": {"seeds": positive, "parallel": orZero, "window": orZero},
	"flexbench": {
		"scale":    {lo: 0, hi: 1, loOpen: true}, // harness.ScaleConfig
		"duration": positive, "seeds": positive, "parallel": orZero, "window": orZero,
	},
	"loadbench": {
		"cpus": orZero, "duration": positive, "queue": orZero, "locks": orZero,
		"service": orZero, "parallel": orZero, "window": orZero,
	},
	"simtrace": {
		"cpus": positive, "threads": positive, "duration": positive,
		"events": orZero, "rawtrace": orZero, "capacity": positive, "window": orZero,
	},
}

// Check exits with status 2 if the command line set a flag that cmd's
// chosen mode would ignore, or a numeric flag outside its range.
func Check(cmd, mode string) {
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	err := check(cmd, mode, set)
	for i := 0; err == nil && i < len(set); i++ {
		err = checkValue(cmd, set[i], flag.Lookup(set[i]).Value.String())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		os.Exit(2)
	}
}

// checkValue reports a value of cmd's flag name outside the flag's range.
func checkValue(cmd, name, value string) error {
	r, ok := ranges[cmd][name]
	if !ok {
		return nil
	}
	if v, err := strconv.ParseFloat(value, 64); err != nil || !r.holds(v) {
		return fmt.Errorf("-%s must be %v, got %s", name, r, value)
	}
	return nil
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
