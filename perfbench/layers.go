package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/harness"
)

// The traced run (--trace 1). It repeats the untraced pass for the
// references, then runs every cell once more on one worker with stage
// timers, the lock observer and the flight recorder attached, reading
// runtime.MemStats around each cell; a sample of cells is re-run with
// each observer toggled on alone. Spans are recorded from here, around
// the calls into each module; nothing inside the program is
// instrumented.

// layerAlgs and layerApps name the per-algorithm and per-application
// run-time metrics every traced run reports (zero where a workload does
// not use them).
var (
	layerAlgs = append(append([]string{}, harness.Algorithms...), "robust/blocking")
	layerApps = []string{"sharedmem", "hashtable", "dbindex", "dedup", "raytrace", "streamcluster", "kv-read", "kv-fill", "traffic"}
)

// layerUnits lists every per-layer metric and its unit.
func layerUnits() map[string]string {
	u := map[string]string{
		"harness.env_ms": "ms", "harness.attach_ms": "ms", "workloads.build_ms": "ms",
		"sim.run_ms": "ms", "harness.collect_ms": "ms", "workloads.validate_ms": "ms",
		"harness.stage_closure_pct": "%", "sim.run_ns_per_ev": "ns",
		"harness.pool_tail_s":     "s",
		"harness.allocs_per_cell": "count", "harness.alloc_mb_per_cell": "MB", "harness.gc_cycles": "count",
		"traffic.run_ns_per_req": "ns", "traffic.offered": "count", "traffic.completed": "count",
		"traffic.dropped": "count", "traffic.peak_workers": "count",
		"obs.observe_marginal_pct": "%", "obs.timeseries_marginal_pct": "%",
		"check.race_marginal_pct": "%", "sim.trace_marginal_pct": "%",
		"check.violations": "count", "check.races": "count",
		"fault.crashes": "count", "fault.abandoned": "count", "fault.orphans": "count",
		"sim.events": "count", "sim.switches": "count", "sim.preemptions": "count",
		"sim.steals": "count", "sim.migrations": "count",
		"locks.acquires": "count", "locks.handovers": "count", "locks.blocks": "count",
		"locks.wakes": "count", "locks.spin_to_block": "count", "locks.spin_iters": "count",
		"monitor.policy_switches": "count", "monitor.cs_preemptions": "count",
		"flexguard.ops_per_s_1x": "ops/s", "flexguard.ops_per_s_4x": "ops/s",
		"flexguard.slow_ratio": "ratio", "flexguard.block_ratio": "ratio",
		"flexguard.spin_to_block": "count", "flexguard.monitor_trips": "count",
		"flexguard.monitor_overshoot_p99_us": "us",
		"trace_overhead_pct":                 "%",
		"host.calib_ms":                      "ms",
	}
	for _, a := range layerAlgs {
		u["locks."+metricAlg(a)+".run_ms"] = "ms"
	}
	for _, a := range layerApps {
		u["workloads."+a+".run_ms"] = "ms"
	}
	return u
}

// layerResult fills every per-layer metric, zero unless set in v.
func layerResult(k *checker, v map[string]float64) result {
	m := map[string]metric{}
	for name, unit := range layerUnits() {
		m[name] = metric{v[name], unit}
	}
	for name := range v {
		if _, ok := m[name]; !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
	}
	return result{Correct: k.failed == 0, Attempted: k.attempted, Failed: k.failed, Metrics: m}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// togglePicks chooses the cells re-run with one observer at a time:
// every k-th cell, about eight in all.
func togglePicks(n int) []int {
	step := max((n+7)/8, 1)
	var out []int
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

func traceSim(w workload, seed uint64, log io.Writer) (result, error) {
	cells := w.cells(seed)
	workers := runtime.GOMAXPROCS(0)
	k := &checker{log: log}
	refs := entryPass(w.name, cells, seed, workers, k)

	par := runPass(cells, workers, w.base)
	k.verify(cells, par, refs)
	serial := runPass(cells, 1, w.base)
	k.verify(cells, serial, refs)

	// Traced pass: one worker, stage timers, Observe and the flight
	// recorder attached, MemStats deltas per cell. Passivity: every
	// fingerprint must equal the untraced run's.
	traced := w.base
	traced.Observe, traced.Window = true, true
	v := map[string]float64{}
	var st stages
	var n counts
	var cellWall, trafficRun time.Duration
	var mallocs, allocBytes uint64
	var gcs uint32
	var ms0, ms1 runtime.MemStats
	tracedStart := time.Now()
	for i, c := range cells {
		t0 := time.Now()
		runtime.ReadMemStats(&ms0)
		out := runStaged(c, traced)
		runtime.ReadMemStats(&ms1)
		cellWall += time.Since(t0)
		mallocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += ms1.NumGC - ms0.NumGC
		k.attempted++
		switch {
		case out.Fail != "":
			k.fail(c.Name, "traced: "+out.Fail)
		case out.Ref != par.runs[i].out.Ref:
			k.fail(c.Name, fmt.Sprintf("observers not passive: traced %+v != untraced %+v", out.Ref, par.runs[i].out.Ref))
		}
		st.add(out.St)
		n.add(out.N)
		v["locks."+metricAlg(c.alg())+".run_ms"] += ms(out.St.Run)
		v["workloads."+c.app()+".run_ms"] += ms(out.St.Run)
		if c.Kind == kindOpen {
			trafficRun += out.St.Run
		}
	}
	tracedWall := time.Since(tracedStart)
	closure := 100 * st.total().Seconds() / cellWall.Seconds()
	k.attempted++
	if closure < 90 || closure > 110 {
		k.fail("stage closure", fmt.Sprintf("stage times sum to %.1f%% of traced cell wall time", closure))
	}
	v["harness.env_ms"] = ms(st.Env)
	v["harness.attach_ms"] = ms(st.Attach)
	v["workloads.build_ms"] = ms(st.Build)
	v["sim.run_ms"] = ms(st.Run)
	v["harness.collect_ms"] = ms(st.Collect)
	v["workloads.validate_ms"] = ms(st.Validate)
	v["harness.stage_closure_pct"] = closure
	if n.Events > 0 {
		v["sim.run_ns_per_ev"] = float64(st.Run.Nanoseconds()) / float64(n.Events)
	}
	v["harness.pool_tail_s"] = par.poolTail().Seconds()
	v["host.calib_ms"] = newCalibrator().measure(workers)
	v["harness.allocs_per_cell"] = float64(mallocs) / float64(len(cells))
	v["harness.alloc_mb_per_cell"] = float64(allocBytes) / float64(len(cells)) / (1 << 20)
	v["harness.gc_cycles"] = float64(gcs)
	if n.Completed > 0 {
		v["traffic.run_ns_per_req"] = float64(trafficRun.Nanoseconds()) / float64(n.Completed)
	}
	v["traffic.offered"], v["traffic.completed"] = float64(n.Offered), float64(n.Completed)
	v["traffic.dropped"], v["traffic.peak_workers"] = float64(n.Dropped), float64(n.PeakWorkers)
	v["check.violations"], v["check.races"] = float64(n.Violations), float64(n.Races)
	v["fault.crashes"], v["fault.abandoned"], v["fault.orphans"] = float64(n.Crashes), float64(n.Abandoned), float64(n.Orphans)
	v["sim.events"], v["sim.switches"], v["sim.preemptions"] = float64(n.Events), float64(n.Switches), float64(n.Preemptions)
	v["sim.steals"], v["sim.migrations"] = float64(n.Steals), float64(n.Migrations)
	v["locks.acquires"], v["locks.handovers"] = float64(n.Acquires), float64(n.Handovers)
	v["locks.blocks"], v["locks.wakes"] = float64(n.Blocks), float64(n.Wakes)
	v["locks.spin_to_block"], v["locks.spin_iters"] = float64(n.SpinToBlock), float64(n.SpinIters)
	v["monitor.policy_switches"], v["monitor.cs_preemptions"] = float64(n.PolicySwitches), float64(n.CSPreemptions)
	// Traced vs untraced cells_per_s, both on one worker.
	v["trace_overhead_pct"] = 100 * (tracedWall.Seconds()/serial.wall.Seconds() - 1)

	// Observer toggles: each observer alone against none, on the same
	// cells, interleaved so host drift hits every side alike.
	toggles := []struct {
		metric string
		o      obsSet
	}{
		{"sim.trace_marginal_pct", obsSet{Trace: true}},
		{"obs.observe_marginal_pct", obsSet{Observe: true}},
		{"obs.timeseries_marginal_pct", obsSet{Window: true}},
		{"check.race_marginal_pct", obsSet{Races: true}},
	}
	var bare time.Duration
	with := make([]time.Duration, len(toggles))
	for _, i := range togglePicks(len(cells)) {
		b := runStaged(cells[i], obsSet{})
		bare += b.St.total()
		for j, t := range toggles {
			out := runStaged(cells[i], t.o)
			with[j] += out.St.total()
			k.attempted++
			if out.Ref.Ops != b.Ref.Ops || out.Fail != b.Fail {
				k.fail(cells[i].Name, fmt.Sprintf("%s changed the run: ops %d vs %d", t.metric, out.Ref.Ops, b.Ref.Ops))
			}
		}
	}
	for j, t := range toggles {
		v[t.metric] = 100 * (with[j].Seconds() - bare.Seconds()) / bare.Seconds()
	}
	fmt.Fprintf(log, "traced: cells=%d stage sum %.1f ms of %.1f ms cell wall (%.1f%%); traced pass %.1f ms, untraced serial pass %.1f ms\n",
		len(cells), ms(st.total()), ms(cellWall), closure, ms(tracedWall), ms(serial.wall))
	return layerResult(k, v), nil
}

// traceNative alternates untraced rounds (Lock timed on 1 op in
// sampleEvery) with traced rounds (every Lock timed) and reports the
// lock's and the monitor's own counters.
func traceNative(seed uint64, seconds float64, log io.Writer) (result, error) {
	rss, err := startRSSSampler()
	if err != nil {
		return result{}, err
	}
	rounds, _, k := nativeRounds(seed, seconds, func(i int) int {
		if i%2 == 1 {
			return 1
		}
		return sampleEvery
	}, rss)
	rss.close()
	var ops1, ops4, untraced, traced, overshoot []float64
	var slow, blocks, spinToBlock, trips, ops int64
	for i, r := range rounds {
		secs := r.wall().Seconds()
		if i%2 == 1 {
			traced = append(traced, float64(r.ops())/secs)
			continue
		}
		untraced = append(untraced, float64(r.ops())/secs)
		for _, p := range r.phases {
			if p.mult == 1 {
				ops1 = append(ops1, float64(p.ops)/p.wall.Seconds())
			} else {
				ops4 = append(ops4, float64(p.ops)/p.wall.Seconds())
			}
		}
		ops += r.ops() + r.warm.ops
		slow += r.mutex.SlowAcquires
		blocks += r.mutex.BlockAcquires
		spinToBlock += r.mutex.SpinToBlock
		trips += r.mon.Trips
		overshoot = append(overshoot, float64(r.mon.Overshoot.P99NS)/1e3)
	}
	v := map[string]float64{
		"flexguard.ops_per_s_1x":             median(ops1),
		"flexguard.ops_per_s_4x":             median(ops4),
		"flexguard.slow_ratio":               float64(slow) / float64(ops),
		"flexguard.spin_to_block":            float64(spinToBlock),
		"flexguard.monitor_trips":            float64(trips),
		"flexguard.monitor_overshoot_p99_us": median(overshoot),
		"trace_overhead_pct":                 100 * (median(untraced)/median(traced) - 1),
		"host.calib_ms":                      newCalibrator().measure(runtime.GOMAXPROCS(0)),
	}
	if slow > 0 {
		v["flexguard.block_ratio"] = float64(blocks) / float64(slow)
	}
	fmt.Fprintf(log, "native traced: rounds=%d (%d traced) lost_updates=%d\n", len(rounds), len(traced), k.failed)
	return layerResult(k, v), nil
}
