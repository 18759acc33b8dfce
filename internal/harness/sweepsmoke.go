package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/sim"
)

// SweepSmokeCell is the canonical fixed-shape cell used by the
// determinism suite, the golden digests, the sweep benchmarks and the
// CI sweep-throughput smoke: small machine, moderate oversubscription,
// tracer on, fixed seed.
func SweepSmokeCell(alg string) RunCfg {
	return RunCfg{
		Config:   sim.Small(4),
		Alg:      alg,
		Threads:  6,
		Duration: 400_000,
		Seed:     11,
		Trace:    true,
	}
}

// SweepSmoke measures sweep-engine throughput for the CI report gate:
// reps repetitions of one canonical cell per algorithm fanned through
// the worker pool. Metrics land in rep under "sweep/smoke" so
// `flexreport -gate` can compare them against the committed baseline:
//
//	cells_per_sec    sweep cells completed per wall-clock second
//	sim_ev_per_sec   aggregate simulated events per wall-clock second
//
// Both are wall-clock and host-dependent; the gate threshold absorbs
// runner variance.
func SweepSmoke(reps, workers int, rep *Report, w io.Writer) error {
	algs := AllAlgorithms
	var events int64
	//flexlint:allow determinism wall-clock throughput measurement; feeds no digest
	start := time.Now()
	for i := 0; i < reps; i++ {
		res, errs := ParallelMapLabeled(workers, len(algs), "sweepsmoke",
			func(j int) string { return algs[j] },
			func(j int) (Result, error) { return RunSharedMem(SweepSmokeCell(algs[j]), 100) })
		if err := FirstError(errs); err != nil {
			return err
		}
		for _, r := range res {
			events += r.TraceEvents
		}
	}
	elapsed := time.Since(start).Seconds()
	cells := float64(reps * len(algs))
	m := map[string]float64{
		"cells_per_sec":  cells / elapsed,
		"sim_ev_per_sec": float64(events) / elapsed,
	}
	if rep != nil {
		rep.AddMetrics("sweep/smoke", m)
	}
	fmt.Fprintf(w, "sweep smoke: %.1f cells/s, %.3g sim-ev/s (%d reps × %d algs, %d workers)\n",
		m["cells_per_sec"], m["sim_ev_per_sec"], reps, len(algs), Workers(workers))
	return nil
}
