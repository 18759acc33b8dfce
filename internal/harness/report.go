package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"

	"repro/internal/obs/timeseries"
	"repro/internal/sim"
)

// ReportSchema identifies the run-report JSON schema. Bump the suffix on
// any incompatible change; flexreport refuses to diff mismatched
// schemas.
const ReportSchema = "flexguard-report/v1"

// Report is the canonical machine-readable record of a benchmark
// invocation: metadata (shape, seed, source revision), one entry per
// run with a flat metric map, and optionally the flight-recorder series.
// Serialization is deterministic — struct fields marshal in declaration
// order and encoding/json emits map keys sorted — so identical runs
// produce byte-identical files, which is what lets CI diff reports
// against a committed baseline.
type Report struct {
	Schema string `json:"schema"`
	// Tool names the producing command (flexbench, faultbench, ...).
	Tool string `json:"tool,omitempty"`
	// Revision is the source identity (VCS revision, "+dirty" when the
	// tree was modified), from runtime/debug.ReadBuildInfo. Metadata
	// only: flexreport ignores it when diffing.
	Revision string      `json:"revision,omitempty"`
	Shape    ReportShape `json:"shape"`
	Runs     []RunReport `json:"runs"`
}

// ReportShape records the simulated machine and sampling setup shared by
// every run in the report.
type ReportShape struct {
	Machine string `json:"machine"`
	CPUs    int    `json:"cpus"`
	Seed    uint64 `json:"seed"`
	// Window is the flight-recorder window in ticks, 0 when telemetry
	// was off.
	Window int64 `json:"window,omitempty"`
}

// RunReport is one run (one grid cell) of a report.
type RunReport struct {
	// Name identifies the cell, e.g. "fig2a/flexguard/t26". Diffs match
	// runs across reports by name.
	Name    string `json:"name"`
	Alg     string `json:"alg,omitempty"`
	Threads int    `json:"threads,omitempty"`
	// Digest is the behavioural trace digest in hex (runs with
	// RunCfg.Trace only): equal digests mean behaviourally identical
	// runs.
	Digest string `json:"digest,omitempty"`
	// Metrics is the flat metric map; flexreport diffs these per key.
	Metrics map[string]float64 `json:"metrics"`
	// Series is the flight-recorder recording, when a window was set.
	Series *timeseries.Series `json:"series,omitempty"`
}

// NewReport starts a report for one tool invocation on the given shape.
func NewReport(tool string, cfg sim.Config, seed uint64, window sim.Time) *Report {
	return &Report{
		Schema:   ReportSchema,
		Tool:     tool,
		Revision: buildRevision(),
		Shape: ReportShape{
			Machine: cfg.Name,
			CPUs:    cfg.NumCPUs,
			Seed:    seed,
			Window:  int64(window),
		},
	}
}

// NewToolReport starts a report whose runs span multiple machine shapes
// (the flexbench experiment catalog mixes Intel and AMD profiles); the
// shape records only the sampling window.
func NewToolReport(tool string, window sim.Time) *Report {
	return &Report{
		Schema:   ReportSchema,
		Tool:     tool,
		Revision: buildRevision(),
		Shape:    ReportShape{Window: int64(window)},
	}
}

// buildRevision resolves the VCS identity of the running binary; empty
// when the build carries no VCS stamp (e.g. `go test` binaries).
func buildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}

// Metrics flattens a Result into the report metric map. Only
// always-meaningful aggregates are included; zero-valued observer
// metrics from runs without the observer attached still appear (a flat,
// fixed key set keeps diffs aligned).
func Metrics(r Result) map[string]float64 {
	return map[string]float64{
		"ops":         float64(r.Ops),
		"ops_per_sec": r.OpsPerSec,
		"mean_lat_us": r.MeanLatUS,
		"p99_lat_us":  r.P99LatUS,
		"fairness":    r.Fairness,
		"spin_iters":  float64(r.SpinIters),
		"preemptions": float64(r.Preempt),
		"cs_preempt":  float64(r.CSPreempt),
		"policy_stob": float64(r.PolicySpinToBlock),
		"policy_btos": float64(r.PolicyBlockToSpin),
	}
}

// Add appends a run entry built from a Result. name must be unique
// within the report; WriteFile refuses a repeat.
func (rep *Report) Add(name string, r Result) {
	run := RunReport{
		Name:    name,
		Alg:     r.Alg,
		Threads: r.Threads,
		Metrics: Metrics(r),
		Series:  r.Series,
	}
	if r.TraceEvents > 0 {
		run.Digest = fmt.Sprintf("%016x", r.TraceDigest)
	}
	rep.Runs = append(rep.Runs, run)
}

// AddMetrics appends a run entry with an explicit metric map, for
// results that are not a harness Result (e.g. the hackbench overhead
// pair).
func (rep *Report) AddMetrics(name string, metrics map[string]float64) {
	rep.Runs = append(rep.Runs, RunReport{Name: name, Metrics: metrics})
}

// Sort orders runs by name, making report bytes independent of the
// order grids happened to execute in.
func (rep *Report) Sort() {
	sort.Slice(rep.Runs, func(i, j int) bool { return rep.Runs[i].Name < rep.Runs[j].Name })
}

// Write serializes the report as indented JSON. Output is deterministic
// for a given report value.
func (rep *Report) Write(w io.Writer) error {
	rep.Sort()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rep)
}

// WriteFile writes the report to path (see Write). It refuses, before
// creating the file, a report that LoadReport would refuse for naming a
// run twice.
func (rep *Report) WriteFile(path string) error {
	if err := claimRuns(make(map[string]string), rep, path); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadReport reads and validates a report file: the schema must match
// and no run name may appear twice (diffs match runs by name).
func LoadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseReport(path, b)
}

// parseReport decodes and validates the bytes of report file path.
func parseReport(path string, b []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != ReportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, ReportSchema)
	}
	if err := claimRuns(make(map[string]string), &rep, path); err != nil {
		return nil, err
	}
	return &rep, nil
}

// claimRuns records in seen that rep's runs come from file path, and
// fails on a run name already seen, naming the file or files it appears
// in.
func claimRuns(seen map[string]string, rep *Report, path string) error {
	for _, r := range rep.Runs {
		if prev, dup := seen[r.Name]; dup {
			if prev == path {
				return fmt.Errorf("%s: run %q appears twice", path, r.Name)
			}
			return fmt.Errorf("run %q appears in both %s and %s", r.Name, prev, path)
		}
		seen[r.Name] = path
	}
	return nil
}

// LoadReports reads a report file, or every *.json report in a
// directory merged into one. Run names must be unique across the
// merged files, which holds for reports produced by distinct tools or
// experiment prefixes; a name in two files is an error.
func LoadReports(path string) (*Report, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return LoadReport(path)
	}
	names, err := filepath.Glob(filepath.Join(path, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no *.json reports", path)
	}
	var merged *Report
	seen := make(map[string]string)
	for _, n := range names {
		rep, err := LoadReport(n)
		if err != nil {
			return nil, err
		}
		if err := claimRuns(seen, rep, n); err != nil {
			return nil, err
		}
		if merged == nil {
			merged = rep
			continue
		}
		merged.Runs = append(merged.Runs, rep.Runs...)
	}
	merged.Sort()
	return merged, nil
}
