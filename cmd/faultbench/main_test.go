package main

import (
	"strings"
	"testing"
)

// TestCheckFlags: every flag a command line sets must change what the
// chosen mode does; a flag the mode would silently ignore is an error
// naming the flag.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		mode string
		set  []string
		bad  string // flag the error must name; "" when the line is valid
	}{
		{"sweep", nil, ""},
		{"sweep", []string{"algs", "plans", "seeds", "parallel", "window", "report", "cpuprofile"}, ""},
		{"sweep", []string{"quick", "algs"}, ""},
		{"sweep", []string{"quick", "seeds"}, "-seeds"},
		{"sweep", []string{"crash"}, "-crash"}, // -crash=false selects nothing
		{"crash", []string{"crash", "quick", "algs", "parallel", "report", "memprofile"}, ""},
		{"crash", []string{"crash", "seeds"}, ""},
		{"crash", []string{"crash", "plans"}, "-plans"},
		{"crash", []string{"crash", "window"}, "-window"},
		{"crash", []string{"crash", "quick", "seeds"}, "-seeds"},
		{"replay", []string{"replay", "cpuprofile"}, ""},
		{"replay", []string{"replay", "seeds"}, "-seeds"},
		{"replay", []string{"replay", "mutants"}, "-mutants"},
		{"mutants", []string{"mutants"}, ""},
		{"mutants", []string{"mutants", "parallel"}, "-parallel"},
		{"mutants", []string{"crash", "mutants"}, "-crash"},
	}
	for _, c := range cases {
		err := checkFlags(c.mode, c.set)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("checkFlags(%s, %v) = %v, want nil", c.mode, c.set, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad+" ")):
			t.Errorf("checkFlags(%s, %v) = %v, want an error naming %s", c.mode, c.set, err, c.bad)
		}
	}
}
