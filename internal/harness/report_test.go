package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// reportCell runs one small windowed, traced cell for report tests.
func reportCell(t *testing.T, alg string) Result {
	t.Helper()
	c := detCell(alg)
	c.Window = 50_000
	r, err := RunSharedMem(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReportRoundTrip: write → load must reproduce the exact in-memory
// report (flexreport's diff of a report against itself is all-zero
// because of this), and the serialized bytes must be stable across
// writes.
func TestReportRoundTrip(t *testing.T) {
	r := reportCell(t, "flexguard")
	rep := NewReport("roundtrip", sim.Small(4), 11, 50_000)
	rep.Add("cell/flexguard", r)
	rep.AddMetrics("cell/aux", map[string]float64{"ok": 1, "seeds": 3})

	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema {
		t.Fatalf("loaded schema %q, want %q", back.Schema, ReportSchema)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip changed the report:\n wrote %+v\n read  %+v", rep, back)
	}

	var a, b bytes.Buffer
	if err := rep.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := back.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("reserializing the loaded report produced different bytes")
	}
}

// TestReportMetrics: the canonical metric set derived from a Result.
func TestReportMetrics(t *testing.T) {
	r := reportCell(t, "flexguard")
	m := Metrics(r)
	for _, key := range []string{
		"ops", "ops_per_sec", "mean_lat_us", "p99_lat_us", "fairness",
		"spin_iters", "preemptions", "cs_preempt", "policy_stob", "policy_btos",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("Metrics missing %q: %v", key, m)
		}
	}
	if m["ops"] <= 0 || m["ops_per_sec"] <= 0 {
		t.Errorf("throughput metrics not positive: %v", m)
	}
}

// TestReportRunsSorted: runs serialize sorted by name regardless of Add
// order, so report bytes don't depend on collection order.
func TestReportRunsSorted(t *testing.T) {
	rep := NewToolReport("sorttest", 0)
	rep.AddMetrics("z/last", map[string]float64{"v": 1})
	rep.AddMetrics("a/first", map[string]float64{"v": 2})
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].Name != "a/first" || rep.Runs[1].Name != "z/last" {
		t.Fatalf("runs not sorted by name: %q, %q", rep.Runs[0].Name, rep.Runs[1].Name)
	}
}

// TestLoadReportsMerges: pointing the loader at a directory merges
// every *.json report in it (how CI hands flexreport a directory of
// per-tool smoke reports).
func TestLoadReportsMerges(t *testing.T) {
	dir := t.TempDir()
	one := NewToolReport("one", 0)
	one.AddMetrics("a", map[string]float64{"v": 1})
	two := NewToolReport("two", 0)
	two.AddMetrics("b", map[string]float64{"v": 2})
	if err := one.WriteFile(filepath.Join(dir, "one.json")); err != nil {
		t.Fatal(err)
	}
	if err := two.WriteFile(filepath.Join(dir, "two.json")); err != nil {
		t.Fatal(err)
	}
	merged, err := LoadReports(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Runs) != 2 || merged.Runs[0].Name != "a" || merged.Runs[1].Name != "b" {
		t.Fatalf("merged runs = %+v, want a then b", merged.Runs)
	}
}

// TestLoadReportRejectsWrongSchema: a future schema bump must fail
// loudly, not diff garbage.
func TestLoadReportRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"flexguard-report/v0","runs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Fatal("loading a wrong-schema report did not error")
	}
}

// TestLoadReportRejectsDuplicateRuns: diffs match runs by name, so a
// report listing a run twice, or a directory whose files share a run
// name, must fail to load rather than let the last duplicate win.
func TestLoadReportRejectsDuplicateRuns(t *testing.T) {
	dir := t.TempDir()
	twice := filepath.Join(dir, "twice.json")
	if err := os.WriteFile(twice, []byte(`{"schema":"`+ReportSchema+`","runs":[`+
		`{"name":"a","metrics":{"ops_per_sec":10}},{"name":"a","metrics":{"ops_per_sec":100}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadReport(twice)
	if err == nil || !strings.Contains(err.Error(), `run "a" appears twice`) {
		t.Fatalf("LoadReport of a run listed twice: err = %v, want it to name run \"a\"", err)
	}

	merge := filepath.Join(dir, "merge")
	if err := os.Mkdir(merge, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"one.json", "two.json"} {
		rep := NewToolReport(name, 0)
		rep.AddMetrics("shared", map[string]float64{"v": 1})
		if err := rep.WriteFile(filepath.Join(merge, name)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = LoadReports(merge)
	if err == nil || !strings.Contains(err.Error(), `"shared"`) ||
		!strings.Contains(err.Error(), "one.json") || !strings.Contains(err.Error(), "two.json") {
		t.Fatalf("LoadReports of a directory sharing a run name: err = %v, want it to name the run and both files", err)
	}
}

// TestWriteFileRejectsDuplicateRuns: a tool must not write a report that
// LoadReport then refuses. WriteFile fails with LoadReport's error, and
// leaves no file behind.
func TestWriteFileRejectsDuplicateRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	rep := NewToolReport("dup", 0)
	rep.Add("fig5c/mcs/t1", Result{Alg: "mcs", Threads: 1})
	rep.Add("fig5c/mcs/t1", Result{Alg: "mcs", Threads: 1})
	err := rep.WriteFile(path)
	want := path + `: run "fig5c/mcs/t1" appears twice`
	if err == nil || err.Error() != want {
		t.Fatalf("WriteFile of a run added twice: err = %v, want %q", err, want)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("WriteFile created %s for a refused report (stat err = %v)", path, err)
	}
}

// FuzzLoadReport: loading arbitrary file bytes never panics, and every
// report it accepts has the current schema and unique run names.
func FuzzLoadReport(f *testing.F) {
	valid := NewToolReport("fuzz", 0)
	valid.AddMetrics("a", map[string]float64{"v": 1})
	valid.AddMetrics("b", map[string]float64{"v": 2})
	var buf bytes.Buffer
	if err := valid.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		`{"schema":"` + ReportSchema + `","runs":[{"name":"a"},{"name":"a"}]}`,
		`{"schema":"` + ReportSchema + `","runs":null}`,
		`{"schema":"` + ReportSchema + `","runs":[{"name":"a","metrics":{"v":1e400}}]}`,
		`{"schema":"flexguard-report/v0","runs":[]}`,
		`{"runs":[{"name":""},{"name":""}]}`,
		`[]`, `null`, ``, `{`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := parseReport("fuzz.json", b)
		if err != nil {
			return
		}
		if rep.Schema != ReportSchema {
			t.Fatalf("accepted schema %q", rep.Schema)
		}
		names := make(map[string]bool)
		for _, r := range rep.Runs {
			if names[r.Name] {
				t.Fatalf("accepted run %q twice", r.Name)
			}
			names[r.Name] = true
		}
	})
}

// TestSummaryRoundTrip covers the Summary-line grammar shared by the
// CLIs: render → parse is lossless, FindSummary digs the line out of
// surrounding output, and malformed pairs panic at render time.
func TestSummaryRoundTrip(t *testing.T) {
	line := SummaryLine(
		KV{Key: "tool", Value: "flexbench"},
		KVf("cells", "%d", 42),
		KVf("scale", "%g", 0.25),
	)
	if want := "Summary: tool=flexbench cells=42 scale=0.25"; line != want {
		t.Fatalf("SummaryLine = %q, want %q", line, want)
	}
	kvs, ok := ParseSummary(line)
	if !ok {
		t.Fatalf("ParseSummary rejected %q", line)
	}
	want := map[string]string{"tool": "flexbench", "cells": "42", "scale": "0.25"}
	if !reflect.DeepEqual(kvs, want) {
		t.Fatalf("ParseSummary = %v, want %v", kvs, want)
	}

	output := "table header\nrow 1\n" + line + "\ntrailing note\n"
	found, ok := FindSummary(output)
	if !ok || !reflect.DeepEqual(found, want) {
		t.Fatalf("FindSummary = %v/%v, want %v", found, ok, want)
	}
	if _, ok := FindSummary("no summary here\n"); ok {
		t.Fatal("FindSummary invented a summary")
	}
	if _, ok := ParseSummary("Summary: dangling"); ok {
		t.Fatal("ParseSummary accepted a field with no =")
	}

	for _, bad := range []KV{
		{Key: "", Value: "v"},
		{Key: "two words", Value: "v"},
		{Key: "k=k", Value: "v"},
		{Key: "k", Value: "two words"},
		{Key: "k", Value: "a\rb"},
		{Key: "k", Value: "a\u00a0b"},
		{Key: "k\u2003", Value: "v"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SummaryLine(%q=%q) did not panic", bad.Key, bad.Value)
				}
			}()
			SummaryLine(bad)
		}()
	}
}

// FuzzParseSummary: parsing never panics, and the pairs of every
// accepted line, rendered again in sorted key order, parse back to the
// same map.
func FuzzParseSummary(f *testing.F) {
	for _, s := range []string{
		"Summary: tool=flexbench cells=42 scale=0.25",
		"Summary:", "Summary: k=", "Summary: k=a=b", "Summary: =v", "Summary: dangling",
		"  Summary: a=1\tb=2\r\n", "Summary: a=1\u00a0b=2", "Summary: a=1 a=2", "summary: a=1",
		"Summary: a=\xff", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		kvs, ok := ParseSummary(line)
		if !ok {
			return
		}
		keys := make([]string, 0, len(kvs))
		for k := range kvs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pairs := make([]KV, len(keys))
		for i, k := range keys {
			pairs[i] = KV{Key: k, Value: kvs[k]}
		}
		again := SummaryLine(pairs...)
		back, ok := ParseSummary(again)
		if !ok || !reflect.DeepEqual(back, kvs) {
			t.Fatalf("ParseSummary(%q) = %v; rendered as %q, which parses to %v (ok=%v)", line, kvs, again, back, ok)
		}
	})
}
