package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestMain lets the test binary stand in for flexreport: with
// FLEXREPORT_RUN_MAIN set it runs main on its arguments, so the tests
// see the command's exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("FLEXREPORT_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// flexreport runs the command with args and returns its stdout, stderr
// and exit status.
func flexreport(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FLEXREPORT_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// smokeReport writes a one-run report shaped like the Report-gate smoke
// run and returns its path.
func smokeReport(t *testing.T) string {
	t.Helper()
	rep := harness.NewToolReport("simtrace", 0)
	rep.AddMetrics("simtrace/flexguard/t8", map[string]float64{"ops_per_sec": 2e6, "p99_lat_us": 4, "crashed": 0})
	path := filepath.Join(t.TempDir(), "smoke.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseGate(t *testing.T) {
	cases := []struct {
		in      string
		ok      bool
		dropBad bool
		pct     float64
	}{
		{"ops_per_sec>=-20%", true, true, 20},
		{"p99_lat_us<=25%", true, false, 25},
		{"x<=25", true, false, 25}, // % suffix optional
		{"ops_per_sec>=20%", false, false, 0},
		{"p99_lat_us<=-5%", false, false, 0},
		{"no-operator", false, false, 0},
		{">=-20%", false, false, 0},
		{"m>=junk%", false, false, 0},
		{"cells_per_sec>=NaN%", false, false, 0},
		{"p99_lat_us<=NaN%", false, false, 0},
		{"m>=-Inf%", false, false, 0},
		{"m<=+Inf%", false, false, 0},
		{"m<=inf", false, false, 0},
	}
	for _, c := range cases {
		g, err := parseGate(c.in)
		if c.ok != (err == nil) {
			t.Errorf("parseGate(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && (g.dropBad != c.dropBad || g.pct != c.pct) {
			t.Errorf("parseGate(%q) = %+v, want dropBad=%v pct=%g", c.in, g, c.dropBad, c.pct)
		}
	}
}

// TestParseInject: a finite factor parses; NaN and ±Inf are rejected
// naming -inject, since a NaN-scaled metric makes every gate hold.
func TestParseInject(t *testing.T) {
	if name, f, err := parseInject("ops_per_sec=0.5"); err != nil || name != "ops_per_sec" || f != 0.5 {
		t.Fatalf("parseInject(ops_per_sec=0.5) = %q, %v, %v", name, f, err)
	}
	for _, s := range []string{
		"ops_per_sec=NaN", "ops_per_sec=nan", "ops_per_sec=Inf", "ops_per_sec=+Inf",
		"ops_per_sec=-Inf", "ops_per_sec=infinity", "ops_per_sec=junk", "ops_per_sec",
	} {
		if _, _, err := parseInject(s); err == nil || !strings.Contains(err.Error(), "-inject") {
			t.Errorf("parseInject(%q) = %v, want an error naming -inject", s, err)
		}
	}
}

// FuzzParseGate: every gate expression either fails with an error or
// yields a finite, non-negative threshold on a non-empty metric; none
// panics.
func FuzzParseGate(f *testing.F) {
	for _, s := range []string{
		"ops_per_sec>=-20%", "p99_lat_us<=25%", "x<=25", "m>=NaN%", "m<=Inf%",
		"m>=-1e308%", "m<=0x1p-3", ">=-5%", "a<=b>=-5%", "m>=%", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := parseGate(s)
		if err != nil {
			return
		}
		if g.metric == "" || math.IsNaN(g.pct) || math.IsInf(g.pct, 0) || g.pct < 0 {
			t.Fatalf("parseGate(%q) = %+v: want an error or a finite non-negative threshold on a named metric", s, g)
		}
	})
}

// TestDiffSelfIsZero: the write → load → diff-zero round trip. A report
// diffed against a reloaded copy of itself yields a row per metric with
// exactly 0% delta and no one-sided runs.
func TestDiffSelfIsZero(t *testing.T) {
	rep := harness.NewToolReport("selftest", 0)
	rep.AddMetrics("cell/a", map[string]float64{"ops_per_sec": 123456.75, "p99_lat_us": 9.5})
	rep.AddMetrics("cell/b", map[string]float64{"ops_per_sec": 42, "fairness": 0.875})
	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := harness.LoadReports(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, onlyBase, onlyCur := diff(rep, loaded)
	if len(onlyBase) != 0 || len(onlyCur) != 0 {
		t.Fatalf("self-diff found one-sided runs: %v / %v", onlyBase, onlyCur)
	}
	if len(rows) != 4 {
		t.Fatalf("self-diff produced %d rows, want 4: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.pct != 0 || r.base != r.cur {
			t.Errorf("self-diff row not zero: %+v", r)
		}
	}
}

func TestDiffDeltasAndSides(t *testing.T) {
	base := harness.NewToolReport("t", 0)
	base.AddMetrics("shared", map[string]float64{"ops": 100, "gone": 1, "zero": 0, "idle": 0})
	base.AddMetrics("dropped", map[string]float64{"ops": 1})
	cur := harness.NewToolReport("t", 0)
	cur.AddMetrics("shared", map[string]float64{"ops": 80, "fresh": 2, "zero": 5, "idle": 0})
	cur.AddMetrics("added", map[string]float64{"ops": 1})

	rows, onlyBase, onlyCur := diff(base, cur)
	if len(onlyBase) != 1 || onlyBase[0] != "dropped" || len(onlyCur) != 1 || onlyCur[0] != "added" {
		t.Fatalf("one-sided runs = %v / %v", onlyBase, onlyCur)
	}
	// Shared metrics only: "gone"/"fresh" exist on one side and are
	// skipped; "idle" is zero on both sides, 0%; "zero" goes 0 -> 5
	// which has no defined percentage.
	if len(rows) != 3 {
		t.Fatalf("rows = %+v, want idle, ops and zero", rows)
	}
	if rows[0].metric != "idle" || rows[0].pct != 0 {
		t.Errorf("idle row = %+v, want 0%%", rows[0])
	}
	if rows[1].metric != "ops" || rows[1].pct != -20 {
		t.Errorf("ops row = %+v, want -20%%", rows[1])
	}
	if rows[2].metric != "zero" || !math.IsNaN(rows[2].pct) {
		t.Errorf("zero row = %+v, want NaN pct", rows[2])
	}

	// The table hides the idle row; -metrics narrows it further.
	if got := printed(rows, ""); len(got) != 2 || got[0].metric != "ops" || got[1].metric != "zero" {
		t.Errorf("printed rows = %+v, want ops and zero", got)
	}
	if got := printed(rows, "ops"); len(got) != 1 || got[0].metric != "ops" {
		t.Errorf("metric filter leaked rows: %+v", got)
	}
}

// TestGateOnMissingMetricRefused: a gate on a metric no shared run
// carries, such as a misspelled one, could never trip, so it exits 2
// naming the gate. A metric zero on both sides is still carried.
func TestGateOnMissingMetricRefused(t *testing.T) {
	path := smokeReport(t)
	_, stderr, code := flexreport(t, "-gate", "ops_per_s>=-20%", path, path)
	if code != 2 || !strings.Contains(stderr, `"ops_per_s>=-20%"`) {
		t.Errorf("misspelled gate: exit %d, stderr %q; want exit 2 naming the gate", code, stderr)
	}
	if stdout, stderr, code := flexreport(t, "-gate", "crashed<=20%", path, path); code != 0 {
		t.Errorf("gate on a metric zero on both sides: exit %d, stdout %q, stderr %q; want 0", code, stdout, stderr)
	}
}

// TestGateJudgesUnprintedMetrics: -metrics chooses what the table
// prints, not what the gates judge, so a hidden regression still trips.
func TestGateJudgesUnprintedMetrics(t *testing.T) {
	path := smokeReport(t)
	stdout, _, code := flexreport(t, "-metrics", "ops_per_sec", "-gate", "p99_lat_us<=20%",
		"-inject", "p99_lat_us=3", path, path)
	if code != 1 || !strings.Contains(stdout, "GATE FAIL simtrace/flexguard/t8 p99_lat_us") {
		t.Errorf("hidden 3x p99 regression: exit %d, stdout %q; want exit 1 and a p99_lat_us gate failure", code, stdout)
	}
	if strings.Contains(stdout, "| p99_lat_us |") {
		t.Errorf("-metrics ops_per_sec printed p99_lat_us: %q", stdout)
	}
}
