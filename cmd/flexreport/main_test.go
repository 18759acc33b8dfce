package main

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/harness"
)

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
	rows, onlyBase, onlyCur := diff(rep, loaded, nil)
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
	base.AddMetrics("shared", map[string]float64{"ops": 100, "gone": 1, "zero": 0})
	base.AddMetrics("dropped", map[string]float64{"ops": 1})
	cur := harness.NewToolReport("t", 0)
	cur.AddMetrics("shared", map[string]float64{"ops": 80, "fresh": 2, "zero": 5})
	cur.AddMetrics("added", map[string]float64{"ops": 1})

	rows, onlyBase, onlyCur := diff(base, cur, nil)
	if len(onlyBase) != 1 || onlyBase[0] != "dropped" || len(onlyCur) != 1 || onlyCur[0] != "added" {
		t.Fatalf("one-sided runs = %v / %v", onlyBase, onlyCur)
	}
	// Shared metrics only: "gone"/"fresh" exist on one side and are
	// skipped; "zero" goes 0 -> 5 which has no defined percentage.
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want ops and zero", rows)
	}
	if rows[0].metric != "ops" || rows[0].pct != -20 {
		t.Errorf("ops row = %+v, want -20%%", rows[0])
	}
	if rows[1].metric != "zero" || !math.IsNaN(rows[1].pct) {
		t.Errorf("zero row = %+v, want NaN pct", rows[1])
	}

	keep := map[string]bool{"ops": true}
	rows, _, _ = diff(base, cur, keep)
	if len(rows) != 1 || rows[0].metric != "ops" {
		t.Errorf("metric filter leaked rows: %+v", rows)
	}
}
