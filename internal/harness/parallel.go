package harness

// The parallel sweep engine: experiment tables fan their (lock ×
// threads × workload × seed) cells out across OS threads. Each cell
// builds its own sim.Machine, RNG, tracer and observers, so
// cells share no mutable state and the per-cell outcome is bit-for-bit
// identical whether the sweep runs on 1 worker or GOMAXPROCS workers —
// the determinism regression suite (determinism_test.go) pins this
// down. Results land at their cell's index, so output ordering never
// depends on completion order.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
)

// Workers resolves a parallelism setting: values below 1 mean "one
// worker per available OS thread" (GOMAXPROCS).
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ParallelMap evaluates fn(0..n-1) on up to workers goroutines and
// returns the results and errors in index order. A panic inside a cell
// is isolated: it is captured (with its stack) as that cell's error and
// the remaining cells still run.
func ParallelMap[T any](workers, n int, fn func(i int) (T, error)) ([]T, []error) {
	return ParallelMapLabeled(workers, n, "", nil, fn)
}

// ParallelMapLabeled is ParallelMap with pprof labels: every cell runs
// under {experiment, cell} labels, so a CPU or goroutine profile of a
// long sweep attributes samples to the (experiment, cell, seed) that
// burned them rather than to an anonymous worker pool. experiment "" or
// a nil label function disables labeling for that dimension.
func ParallelMapLabeled[T any](workers, n int, experiment string, label func(i int) string, fn func(i int) (T, error)) ([]T, []error) {
	results := make([]T, n)
	errs := make([]error, n)
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = runCell(i, experiment, label, fn)
		}
		return results, errs
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = runCell(i, experiment, label, fn)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errs
}

// runCell invokes one cell with panic isolation, under the sweep's
// pprof labels when any were requested.
func runCell[T any](i int, experiment string, label func(i int) string, fn func(i int) (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	if experiment == "" && label == nil {
		return fn(i)
	}
	kv := make([]string, 0, 4)
	if experiment != "" {
		kv = append(kv, "experiment", experiment)
	}
	if label != nil {
		kv = append(kv, "cell", label(i))
	}
	pprof.Do(context.Background(), pprof.Labels(kv...), func(context.Context) {
		res, err = fn(i)
	})
	return res, err
}

// FirstError returns the lowest-index non-nil error, or nil.
func FirstError(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
