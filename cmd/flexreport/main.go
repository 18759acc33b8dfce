// Command flexreport diffs two run reports (as written by the other
// CLIs' -report flag) and gates on regressions — the A/B step of the
// perf trajectory: CI compares a smoke report against the committed
// baseline and fails when a gated metric moves past its threshold.
//
// Usage:
//
//	flexreport old.json new.json                        # markdown delta table
//	flexreport -format csv old-reports/ new-reports/    # directories merge *.json
//	flexreport -metrics ops_per_sec,p99_lat_us old.json new.json
//	flexreport -gate 'ops_per_sec>=-20%' -gate 'p99_lat_us<=25%' old.json new.json
//	flexreport -inject ops_per_sec=0.5 -gate 'ops_per_sec>=-20%' old.json old.json
//
// A gate names a metric and the move it tolerates: `m>=-20%` fails when
// m drops more than 20% below baseline (throughput-style, lower is
// worse); `m<=25%` fails when m rises more than 25% above baseline
// (latency-style, higher is worse). Gates judge every metric both
// reports share, whatever -metrics prints. -inject scales a metric in
// the second report before diffing, so CI can prove the gate actually
// trips (the injected regression must exit nonzero).
//
// Exit status: 0 when all gates hold, 1 on a gate regression, 2 on
// usage or load errors and on a gate whose metric no shared run carries.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/harness"
)

// gate is one parsed regression bound.
type gate struct {
	metric  string
	dropBad bool    // true for ">=-N%" (drops fail), false for "<=N%" (rises fail)
	pct     float64 // tolerated move, in percent (always positive)
}

// parseGate parses `metric>=-20%` / `metric<=25%`.
func parseGate(s string) (gate, error) {
	var g gate
	var rest string
	switch {
	case strings.Contains(s, ">="):
		g.dropBad = true
		parts := strings.SplitN(s, ">=", 2)
		g.metric, rest = parts[0], parts[1]
	case strings.Contains(s, "<="):
		parts := strings.SplitN(s, "<=", 2)
		g.metric, rest = parts[0], parts[1]
	default:
		return g, fmt.Errorf("gate %q: want metric>=-N%% or metric<=N%%", s)
	}
	rest = strings.TrimSuffix(rest, "%")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return g, fmt.Errorf("gate %q: bad threshold: %v", s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// Every comparison with NaN is false, so a NaN bound would hold
		// whatever the delta; an infinite one holds trivially.
		return g, fmt.Errorf("gate %q: threshold must be finite", s)
	}
	if g.dropBad {
		if v > 0 {
			return g, fmt.Errorf("gate %q: a >= bound tolerates a drop; write a negative percentage", s)
		}
		v = -v
	} else if v < 0 {
		return g, fmt.Errorf("gate %q: a <= bound tolerates a rise; write a positive percentage", s)
	}
	if g.metric == "" {
		return g, fmt.Errorf("gate %q: empty metric", s)
	}
	g.pct = v
	return g, nil
}

// parseInject parses an -inject term `metric=factor`. The factor must be
// finite: a NaN scale makes every gate comparison false, so the
// injected regression would pass the very gate it exists to trip.
func parseInject(s string) (string, float64, error) {
	name, factorStr, ok := strings.Cut(s, "=")
	if !ok {
		return "", 0, fmt.Errorf("-inject %q: want metric=factor", s)
	}
	factor, err := strconv.ParseFloat(factorStr, 64)
	if err != nil {
		return "", 0, fmt.Errorf("-inject %q: %v", s, err)
	}
	if math.IsNaN(factor) || math.IsInf(factor, 0) {
		return "", 0, fmt.Errorf("-inject %q: factor must be finite", s)
	}
	return name, factor, nil
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// deltaRow is one (run, metric) comparison.
type deltaRow struct {
	run, metric string
	base, cur   float64
	pct         float64 // percent change; NaN when base == 0 != cur
}

func main() {
	var (
		format  = flag.String("format", "md", "output format: md (markdown) or csv")
		metrics = flag.String("metrics", "", "comma-separated metrics to print (default: every metric present)")
		gates   multiFlag
		injects multiFlag
	)
	flag.Var(&gates, "gate", "regression bound `metric>=-N%` (drop fails) or `metric<=N%` (rise fails); repeatable")
	flag.Var(&injects, "inject", "scale `metric=factor` in the second report before diffing (gate self-test); repeatable")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "flexreport: want exactly two arguments: <baseline.json|dir> <current.json|dir>")
		flag.Usage()
		os.Exit(2)
	}

	var parsed []gate
	for _, s := range gates {
		g, err := parseGate(s)
		if err != nil {
			fatal(err)
		}
		parsed = append(parsed, g)
	}

	base, err := harness.LoadReports(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := harness.LoadReports(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	for _, inj := range injects {
		name, factor, err := parseInject(inj)
		if err != nil {
			fatal(err)
		}
		injected := 0
		for i := range cur.Runs {
			if v, ok := cur.Runs[i].Metrics[name]; ok {
				cur.Runs[i].Metrics[name] = v * factor
				injected++
			}
		}
		if injected == 0 {
			fatal(fmt.Errorf("-inject %q: metric %q appears in no run of %s", inj, name, flag.Arg(1)))
		}
	}

	// A gate on a metric no shared run carries could never trip.
	judged, onlyBase, onlyCur := diff(base, cur)
	for i, g := range parsed {
		if !slices.ContainsFunc(judged, func(r deltaRow) bool { return r.metric == g.metric }) {
			fatal(fmt.Errorf("-gate %q: no run in both reports carries %q", gates[i], g.metric))
		}
	}

	rows := printed(judged, *metrics)
	switch *format {
	case "md":
		writeMarkdown(rows)
	case "csv":
		writeCSV(rows)
	default:
		fatal(fmt.Errorf("unknown -format %q (want md or csv)", *format))
	}
	for _, n := range onlyBase {
		fmt.Printf("only in baseline: %s\n", n)
	}
	for _, n := range onlyCur {
		fmt.Printf("only in current: %s\n", n)
	}

	failures := 0
	for _, g := range parsed {
		for _, r := range judged {
			if r.metric != g.metric || r.base == 0 {
				continue
			}
			if g.dropBad && r.pct < -g.pct {
				fmt.Printf("GATE FAIL %s %s: %.6g -> %.6g (%.2f%% < -%.2f%%)\n",
					r.run, r.metric, r.base, r.cur, r.pct, g.pct)
				failures++
			}
			if !g.dropBad && r.pct > g.pct {
				fmt.Printf("GATE FAIL %s %s: %.6g -> %.6g (+%.2f%% > +%.2f%%)\n",
					r.run, r.metric, r.base, r.cur, r.pct, g.pct)
				failures++
			}
		}
	}
	if failures > 0 {
		fmt.Printf("%d gate failure(s)\n", failures)
		os.Exit(1)
	}
	if len(parsed) > 0 {
		fmt.Println("all gates hold")
	}
}

// diff matches runs by name and produces one row per shared metric, in
// (run, metric) order; run names present on only one side are returned
// separately.
func diff(base, cur *harness.Report) (rows []deltaRow, onlyBase, onlyCur []string) {
	curByName := make(map[string]harness.RunReport, len(cur.Runs))
	for _, r := range cur.Runs {
		curByName[r.Name] = r
	}
	matched := make(map[string]bool)
	for _, b := range base.Runs {
		c, ok := curByName[b.Name]
		if !ok {
			onlyBase = append(onlyBase, b.Name)
			continue
		}
		matched[b.Name] = true
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics {
			if _, shared := c.Metrics[k]; shared {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv, cv := b.Metrics[k], c.Metrics[k]
			row := deltaRow{run: b.Name, metric: k, base: bv, cur: cv}
			if bv != 0 {
				row.pct = (cv - bv) / math.Abs(bv) * 100
			} else if cv != 0 {
				row.pct = math.NaN()
			}
			rows = append(rows, row)
		}
	}
	for _, c := range cur.Runs {
		if !matched[c.Name] {
			onlyCur = append(onlyCur, c.Name)
		}
	}
	sort.Strings(onlyBase)
	sort.Strings(onlyCur)
	return rows, onlyBase, onlyCur
}

// printed picks the rows the table shows: a metric zero on both sides
// moved nowhere, and a -metrics list names the rest.
func printed(rows []deltaRow, metrics string) []deltaRow {
	keep := strings.Split(metrics, ",")
	return slices.DeleteFunc(slices.Clone(rows), func(r deltaRow) bool {
		return r.base == 0 && r.cur == 0 || metrics != "" && !slices.Contains(keep, r.metric)
	})
}

func fmtPct(p float64) string {
	if math.IsNaN(p) {
		return "new"
	}
	return fmt.Sprintf("%+.2f%%", p)
}

func writeMarkdown(rows []deltaRow) {
	fmt.Println("| run | metric | baseline | current | delta |")
	fmt.Println("|---|---|---:|---:|---:|")
	for _, r := range rows {
		fmt.Printf("| %s | %s | %.6g | %.6g | %s |\n", r.run, r.metric, r.base, r.cur, fmtPct(r.pct))
	}
}

func writeCSV(rows []deltaRow) {
	fmt.Println("run,metric,baseline,current,delta_pct")
	for _, r := range rows {
		pct := ""
		if !math.IsNaN(r.pct) {
			pct = strconv.FormatFloat(r.pct, 'f', 4, 64)
		}
		fmt.Printf("%s,%s,%s,%s,%s\n", r.run, r.metric,
			strconv.FormatFloat(r.base, 'g', -1, 64), strconv.FormatFloat(r.cur, 'g', -1, 64), pct)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexreport:", err)
	os.Exit(2)
}
