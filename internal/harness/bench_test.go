package harness

// BenchmarkSweepParallel measures the parallel sweep engine: one
// canonical cell per algorithm, fanned across worker counts. The
// interesting metrics are cells/sec (sweep throughput) and sim-ev/sec
// (aggregate simulated-event rate); on a multi-core host throughput
// should scale near-linearly until workers exceed physical cores,
// because cells share no mutable state. The recorded baseline lives in
// BENCH_sweep.json at the repo root (see EXPERIMENTS.md).

import (
	"fmt"
	"testing"
)

func BenchmarkSweepParallel(b *testing.B) {
	algs := AllAlgorithms
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var events int64
			for i := 0; i < b.N; i++ {
				res, errs := ParallelMap(workers, len(algs), func(j int) (Result, error) {
					return RunSharedMem(detCell(algs[j]), 100)
				})
				if err := FirstError(errs); err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					events += r.TraceEvents
				}
			}
			cells := float64(b.N * len(algs))
			b.ReportMetric(cells/b.Elapsed().Seconds(), "cells/s")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "sim-ev/s")
		})
	}
}
