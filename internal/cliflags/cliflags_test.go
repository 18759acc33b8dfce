package cliflags

import (
	"strings"
	"testing"
)

// TestCheckFlags: every flag a command line sets must change what the
// chosen mode does; a flag the mode would silently ignore is an error
// naming the flag.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		cmd, mode string
		set       []string
		bad       string // flag the error must name; "" when the line is valid
	}{
		{"faultbench", "sweep", nil, ""},
		{"faultbench", "sweep", []string{"algs", "plans", "seeds", "parallel", "window", "report", "cpuprofile"}, ""},
		{"faultbench", "sweep", []string{"quick", "algs"}, ""},
		{"faultbench", "sweep", []string{"quick", "seeds"}, "-seeds"},
		{"faultbench", "sweep", []string{"crash"}, "-crash"}, // -crash=false selects nothing
		{"faultbench", "crash", []string{"crash", "quick", "algs", "parallel", "report", "memprofile"}, ""},
		{"faultbench", "crash", []string{"crash", "seeds"}, ""},
		{"faultbench", "crash", []string{"crash", "plans"}, "-plans"},
		{"faultbench", "crash", []string{"crash", "window"}, "-window"},
		{"faultbench", "crash", []string{"crash", "quick", "seeds"}, "-seeds"},
		{"faultbench", "replay", []string{"replay", "cpuprofile"}, ""},
		{"faultbench", "replay", []string{"replay", "seeds"}, "-seeds"},
		{"faultbench", "replay", []string{"replay", "mutants"}, "-mutants"},
		{"faultbench", "mutants", []string{"mutants"}, ""},
		{"faultbench", "mutants", []string{"mutants", "parallel"}, "-parallel"},
		{"faultbench", "mutants", []string{"crash", "mutants"}, "-crash"},

		{"flexbench", "list", []string{"list"}, ""},
		{"flexbench", "list", []string{"list", "parallel"}, "-parallel"},
		{"flexbench", "sweepsmoke", []string{"sweepsmoke", "parallel", "report", "cpuprofile"}, ""},
		{"flexbench", "sweepsmoke", []string{"sweepsmoke", "experiment", "scale"}, "-experiment"},
		{"flexbench", "sweepsmoke", []string{"sweepsmoke", "scale"}, "-scale"},
		{"flexbench", "experiment", []string{"experiment", "scale", "duration", "seeds", "algs", "metrics", "parallel", "window", "report", "memprofile"}, ""},
		{"flexbench", "experiment", []string{"experiment", "sweepsmoke"}, "-sweepsmoke"}, // -sweepsmoke 0 selects nothing
		{"flexbench", "all", []string{"all", "scale", "report"}, ""},
		{"flexbench", "all", []string{"all", "experiment"}, "-experiment"},

		{"loadbench", "grid", []string{"patterns", "rates", "algs", "machine", "cpus", "duration", "seed", "queue", "locks", "service", "parallel", "window", "report"}, ""},
		{"loadbench", "grid", []string{"quick"}, "-quick"}, // -quick=false selects nothing
		{"loadbench", "quick", []string{"quick", "parallel", "report", "locks"}, ""},
		{"loadbench", "quick", []string{"quick", "rates", "algs"}, "-rates"},
		{"loadbench", "quick", []string{"quick", "duration"}, "-duration"},

		{"simtrace", "run", []string{"alg", "cpus", "threads", "duration", "events", "seed", "window", "report", "races"}, ""},
		{"simtrace", "run", []string{"cpus", "threads", "duration", "events", "seed", "window", "report", "races", "mutant"}, ""},
		{"simtrace", "run", []string{"mutant", "alg"}, "-alg"},
	}
	for _, c := range cases {
		err := check(c.cmd, c.mode, c.set)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%s: check(%s, %v) = %v, want nil", c.cmd, c.mode, c.set, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad+" ") || !strings.Contains(err.Error(), " "+c.mode+" mode")):
			t.Errorf("%s: check(%s, %v) = %v, want an error naming %s and the mode", c.cmd, c.mode, c.set, err, c.bad)
		}
	}
}

// TestCheckValues: a numeric flag outside its range is an error naming
// the flag and the range; 0 stays valid where the help text gives it a
// meaning.
func TestCheckValues(t *testing.T) {
	cases := []struct {
		cmd, flag, value string
		want             string // the error's text; "" when the value is valid
	}{
		{"simtrace", "cpus", "0", "-cpus must be at least 1, got 0"},
		{"simtrace", "cpus", "-3", "-cpus must be at least 1, got -3"},
		{"simtrace", "cpus", "1", ""},
		{"simtrace", "threads", "0", "-threads must be at least 1, got 0"},
		{"simtrace", "duration", "-5", "-duration must be at least 1, got -5"},
		{"simtrace", "window", "0", ""},
		{"simtrace", "events", "-1", "-events must be at least 0, got -1"},
		{"flexbench", "duration", "-1", "-duration must be at least 1, got -1"},
		{"flexbench", "scale", "2", "-scale must be in (0, 1], got 2"},
		{"flexbench", "scale", "0", "-scale must be in (0, 1], got 0"},
		{"flexbench", "scale", "1", ""},
		{"flexbench", "scale", "0.1", ""},
		{"flexbench", "parallel", "0", ""},
		{"flexbench", "seeds", "0", "-seeds must be at least 1, got 0"},
		{"loadbench", "duration", "-100", "-duration must be at least 1, got -100"},
		{"loadbench", "cpus", "0", ""},
		{"loadbench", "queue", "-1", "-queue must be at least 0, got -1"},
		{"loadbench", "rates", "-1", ""}, // not numeric: loadbench parses the list itself
		{"faultbench", "seeds", "0", "-seeds must be at least 1, got 0"},
	}
	for _, c := range cases {
		err := checkValue(c.cmd, c.flag, c.value)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s -%s %s: %v, want nil", c.cmd, c.flag, c.value, err)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%s -%s %s: %v, want %q", c.cmd, c.flag, c.value, err, c.want)
		}
	}
}
