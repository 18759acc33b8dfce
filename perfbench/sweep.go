package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/harness"
)

// checker counts attempted and failed cell runs. A cell run fails when
// its own output check fails (outcome.Fail), when it disagrees with its
// harness entry point, or — on the default seed — when it disagrees with
// the recorded reference table.
type checker struct {
	attempted, failed int64
	log               io.Writer
}

func (k *checker) fail(name, why string) {
	k.failed++
	fmt.Fprintf(k.log, "FAIL %s: %s\n", name, why)
}

// cellRun is one staged cell run inside a pass.
type cellRun struct {
	out        outcome
	start, end time.Duration // since the start of the pass
}

// pass is one sweep over every cell.
type pass struct {
	wall time.Duration
	runs []cellRun
}

// runPass fans the cells out through the harness worker pool, timing
// the whole sweep and stamping each cell's completion time.
func runPass(cells []cell, workers int, o obsSet) pass {
	start := time.Now()
	runs, errs := harness.ParallelMap(workers, len(cells), func(i int) (cellRun, error) {
		begin := time.Since(start)
		out := runStaged(cells[i], o)
		return cellRun{out: out, start: begin, end: time.Since(start)}, nil
	})
	for i, err := range errs {
		if err != nil { // a panic inside the cell
			runs[i].out.Fail = err.Error()
		}
	}
	return pass{wall: time.Since(start), runs: runs}
}

// poolTail is how long the sweep ran with a worker idle at its end:
// from the first completion among the cells still running when the last
// cell started (that worker then finds no more cells) to the last
// completion.
func (p pass) poolTail() time.Duration {
	var lastStart, lastEnd time.Duration
	for _, r := range p.runs {
		lastStart, lastEnd = max(lastStart, r.start), max(lastEnd, r.end)
	}
	firstIdle := lastEnd
	for _, r := range p.runs {
		if r.start <= lastStart && r.end >= lastStart {
			firstIdle = min(firstIdle, r.end)
		}
	}
	return lastEnd - firstIdle
}

func (p pass) setup() time.Duration {
	var s time.Duration
	for _, r := range p.runs {
		s += r.out.St.setup()
	}
	return s
}

func (p pass) ops() int64 {
	var n int64
	for _, r := range p.runs {
		n += r.out.Ref.Ops
	}
	return n
}

// verify checks every run of a pass against the references.
func (k *checker) verify(cells []cell, p pass, want []ref) {
	for i, r := range p.runs {
		k.attempted++
		switch {
		case r.out.Fail != "":
			k.fail(cells[i].Name, r.out.Fail)
		case !want[i].agrees(r.out.Ref):
			k.fail(cells[i].Name, fmt.Sprintf("staged %+v != reference %+v", r.out.Ref, want[i]))
		}
	}
}

// entryPass runs every cell through its harness entry point. It is the
// untimed warm-up of every simulator run, and its fingerprints are what
// the staged passes must reproduce. On the default seed the
// fingerprints must also equal the recorded table.
func entryPass(wl string, cells []cell, seed uint64, workers int, k *checker) []ref {
	refs, errs := harness.ParallelMap(workers, len(cells), func(i int) (ref, error) {
		return runEntry(cells[i])
	})
	var table map[string]ref
	if seed == defaultSeed {
		table = expected()[wl]
	}
	for i, c := range cells {
		k.attempted++
		switch want, ok := table[c.Name]; {
		case errs[i] != nil:
			k.fail(c.Name, "entry point: "+errs[i].Error())
		case table != nil && !ok:
			k.fail(c.Name, "missing from the recorded default-seed table")
		case table != nil && !want.agrees(refs[i]):
			k.fail(c.Name, fmt.Sprintf("entry point %+v != recorded %+v", refs[i], want))
		}
	}
	return refs
}

// runSim is the untraced measurement: timed passes with one worker per
// GOMAXPROCS until the run's time is up, reported as medians over
// passes. Every host time of a pass is scaled to the reference host's
// speed by the calibration kernel timed before and after it (calib.go).
// The lock latency of a simulator workload is the host time the
// simulator spends per simulated lock operation: each cell's median over
// passes of its run time over its operations, weighted by its
// operations, so a cell that completes few operations (a crash plan that
// kills its threads early) cannot set the percentile alone.
func runSim(w workload, seed uint64, seconds float64, log io.Writer) (result, error) {
	cells := w.cells(seed)
	workers := runtime.GOMAXPROCS(0)
	k := &checker{log: log}
	rss, err := startRSSSampler()
	if err != nil {
		return result{}, err
	}
	refs := entryPass(w.name, cells, seed, workers, k)

	var cps, raw, calib, ops, setup, peaks []float64
	perOp := make([][]float64, len(cells)) // scaled µs per operation, by cell
	var lane counts
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	cal := newCalibrator()
	before := cal.measure(workers)
	rss.take()
	start := time.Now()
	for len(cps) < minPasses || time.Since(start).Seconds() < seconds {
		runtime.ReadMemStats(&ms0)
		p := runPass(cells, workers, w.base)
		runtime.ReadMemStats(&ms1)
		peaks = append(peaks, rss.take())
		after := cal.measure(workers)
		scale := refCalibMs / ((before + after) / 2)
		before = after
		k.verify(cells, p, refs)
		mallocs += ms1.Mallocs - ms0.Mallocs
		secs := p.wall.Seconds() * scale
		raw = append(raw, float64(len(cells))/p.wall.Seconds())
		calib = append(calib, refCalibMs/scale)
		cps = append(cps, float64(len(cells))/secs)
		ops = append(ops, float64(p.ops())/secs)
		setup = append(setup, p.setup().Seconds()*scale)
		for i, r := range p.runs {
			n := float64(max(r.out.Ref.Ops, 1))
			perOp[i] = append(perOp[i], r.out.St.total().Seconds()*scale*1e6/n)
		}
		if len(cps) == 1 {
			for _, r := range p.runs {
				lane.add(r.out.N)
			}
		}
	}
	rss.close()
	lat := make([]weighted, len(cells))
	for i, r := range refs {
		lat[i] = weighted{median(perOp[i]), float64(max(r.Ops, 1))}
	}
	fmt.Fprintf(log, "cells_per_s by pass: %.4g\n", cps)
	fmt.Fprintf(log, "unscaled cells_per_s by pass: %.4g\n", raw)
	fmt.Fprintf(log, "calibration ms by pass (reference %g): %.4g\n", refCalibMs, calib)
	fmt.Fprintf(log, "count lane: cells=%d passes=%d allocs_per_cell=%.0f events=%d ops=%d switches=%d preemptions=%d steals=%d migrations=%d spin_iters=%d policy_switches=%d cs_preemptions=%d violations=%d races=%d\n",
		len(cells), len(cps), float64(mallocs)/float64(len(cps)*len(cells)),
		lane.Events, lane.Ops, lane.Switches, lane.Preemptions, lane.Steals, lane.Migrations,
		lane.SpinIters, lane.PolicySwitches, lane.CSPreemptions, lane.Violations, lane.Races)
	return result{
		Correct:   k.failed == 0,
		Attempted: k.attempted,
		Failed:    k.failed,
		Metrics: map[string]metric{
			"cells_per_s":    {median(cps), "cells/s"},
			"lock_ops_per_s": {median(ops), "ops/s"},
			"lock_p50_us":    {weightedQuantile(lat, 0.50), "us"},
			"lock_p99_us":    {weightedQuantile(lat, 0.99), "us"},
			"setup_s":        {median(setup), "s"},
			"peak_rss_mb":    {median(peaks), "MB"},
		},
	}, nil
}
