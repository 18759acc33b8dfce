package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// warmColdRef is the uninterrupted reference for the snapshot
// equivalence property: the same construction closure and warm phase as
// Prewarm, but the machine keeps running into the measured workload
// without ever being snapshotted.
func warmColdRef(c RunCfg, w WarmSpec, seed uint64, think sim.Time) (Result, error) {
	e, dur, err := prewarmEnv(c, w)
	if err != nil {
		return Result{}, err
	}
	e.workerBase = len(e.M.Threads())
	e.M.Reseed(defaultSeed(seed))
	c.Trace = false // attached by prewarmEnv
	warm := func() (*Env, error) { return e, nil }
	return noEnv(runClosed(c, dur, warm, sharedmemWork(think, nil)))
}

// TestSnapshotEquivalence is the clone guarantee at the harness level:
// for every registered algorithm, running the workload on a clone of a
// warmed snapshot yields a Result — trace digest included — identical
// to the machine that was never snapshotted. The warm side is swept
// through ParallelMap at several worker counts, so the property also
// covers concurrent clones of a shared snapshot.
func TestSnapshotEquivalence(t *testing.T) {
	const (
		seed  = 7
		think = sim.Time(100)
	)
	warm := WarmSpec{Threads: 3, Duration: 300_000}
	cell := func(alg string) RunCfg {
		return RunCfg{
			Config:   sim.Small(4),
			Alg:      alg,
			Threads:  6,
			Duration: 400_000,
			Seed:     11,
			Trace:    true,
		}
	}

	want := make([]Result, len(AllAlgorithms))
	warmed := make([]*Warmed, len(AllAlgorithms))
	for i, alg := range AllAlgorithms {
		var err error
		if want[i], err = warmColdRef(cell(alg), warm, seed, think); err != nil {
			t.Fatalf("%s: cold reference: %v", alg, err)
		}
		if warmed[i], err = Prewarm(cell(alg), warm); err != nil {
			t.Fatalf("%s: Prewarm: %v", alg, err)
		}
		if want[i].TraceEvents == 0 {
			t.Fatalf("%s: cold reference traced no events", alg)
		}
	}

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("parallel-%d", workers), func(t *testing.T) {
			got, errs := ParallelMap(workers, len(AllAlgorithms), func(i int) (Result, error) {
				return warmed[i].RunSharedMem(seed, think), nil
			})
			if err := FirstError(errs); err != nil {
				t.Fatal(err)
			}
			for i, alg := range AllAlgorithms {
				if got[i].TraceDigest != want[i].TraceDigest {
					t.Errorf("%s: clone digest %#x != cold digest %#x (events %d vs %d)",
						alg, got[i].TraceDigest, want[i].TraceDigest,
						got[i].TraceEvents, want[i].TraceEvents)
					continue
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: clone Result diverged from cold run:\n got %+v\nwant %+v",
						alg, got[i], want[i])
				}
			}
		})
	}
}

// TestPrewarmRejectsStatefulObservers: observers that accumulate
// Go-heap state during the warm phase cannot ride a snapshot.
func TestPrewarmRejectsStatefulObservers(t *testing.T) {
	base := RunCfg{Config: sim.Small(2), Alg: "mcs", Threads: 2, Duration: 100_000}
	for _, tc := range []struct {
		name string
		mut  func(*RunCfg)
	}{
		{"runnable", func(c *RunCfg) { c.RecordRunnable = true }},
		{"races", func(c *RunCfg) { c.Races = true }},
		{"window", func(c *RunCfg) { c.Window = 10_000 }},
	} {
		c := base
		tc.mut(&c)
		if _, err := Prewarm(c, WarmSpec{}); err == nil {
			t.Errorf("%s: Prewarm accepted an observer it cannot snapshot", tc.name)
		}
	}
}
