package harness

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestAverageRunsMeansEveryMetric: with two seeds, every report metric
// and every lock-telemetry total a figure prints is the seed mean
// (integer counters rounded down), while per-run artifacts are the last
// seed's; with one seed the run comes back unchanged.
func TestAverageRunsMeansEveryMetric(t *testing.T) {
	runs := map[uint64]Result{
		7: {
			Alg: "mcstp", Threads: 20, Ops: 11, OpsPerSec: 1.5, MeanLatUS: 2, P99LatUS: 3, Fairness: 0.5,
			SpinIters: 2_267_687, Preempt: 5, CSPreempt: 1, PolicySpinToBlock: 2, PolicyBlockToSpin: 3,
			Acquires: 100, Handovers: 40, SpinStarts: 30, Blocks: 7, Wakes: 6, SpinToBlock: 4, BlockToSpin: 1,
			TraceDigest: 0xaaaa, TraceEvents: 900,
		},
		1007: {
			Alg: "mcstp", Threads: 20, Ops: 20, OpsPerSec: 2.5, MeanLatUS: 4, P99LatUS: 6, Fairness: 0.75,
			SpinIters: 2_261_699, Preempt: 8, CSPreempt: 4, PolicySpinToBlock: 5, PolicyBlockToSpin: 6,
			Acquires: 201, Handovers: 41, SpinStarts: 33, Blocks: 10, Wakes: 9, SpinToBlock: 7, BlockToSpin: 2,
			TraceDigest: 0xbbbb, TraceEvents: 1000,
		},
	}
	fn := func(seed uint64) (Result, error) { return runs[seed], nil }

	got, err := averageRuns(ExpOptions{Seeds: 2}, fn)
	if err != nil {
		t.Fatal(err)
	}
	m7, m1007, mg := Metrics(runs[7]), Metrics(runs[1007]), Metrics(got)
	counters := map[string]bool{
		"ops": true, "spin_iters": true, "preemptions": true, "cs_preempt": true,
		"policy_stob": true, "policy_btos": true,
	}
	for k, v := range mg {
		want := (m7[k] + m1007[k]) / 2
		if counters[k] {
			want = math.Floor(want)
		}
		if v != want {
			t.Errorf("metric %s = %v, want the seed mean %v", k, v, want)
		}
	}
	if got.SpinIters != 2_264_693 {
		t.Errorf("SpinIters = %d, want 2264693", got.SpinIters)
	}
	totals := [][3]int64{
		{got.Acquires, 100, 201}, {got.Handovers, 40, 41}, {got.SpinStarts, 30, 33},
		{got.Blocks, 7, 10}, {got.Wakes, 6, 9}, {got.SpinToBlock, 4, 7}, {got.BlockToSpin, 1, 2},
	}
	for i, c := range totals {
		if want := (c[1] + c[2]) / 2; c[0] != want {
			t.Errorf("lock-telemetry total %d = %d, want %d", i, c[0], want)
		}
	}
	if got.TraceDigest != 0xbbbb || got.TraceEvents != 1000 {
		t.Errorf("per-run artifacts %#x/%d, want the last seed's", got.TraceDigest, got.TraceEvents)
	}

	one, err := averageRuns(ExpOptions{Seeds: 1}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, runs[7]) {
		t.Errorf("one seed: %+v, want the run unchanged %+v", one, runs[7])
	}
}

// TestWriteLockMetricsBusiestFirst: the per-lock table lists locks by
// acquisitions, busiest first and ties by name, so a hot lock with a
// high id is not cut off behind the first 20 quiet ones.
func TestWriteLockMetricsBusiestFirst(t *testing.T) {
	r := Result{PerLock: []obs.LockSummary{{Name: "ht.b0", Acquires: 3}, {Name: "ht.b2", Acquires: 9}}}
	for i := 3; i < 25; i++ {
		r.PerLock = append(r.PerLock, obs.LockSummary{Name: "ht.q" + string(rune('a'+i)), Acquires: 1})
	}
	r.PerLock = append(r.PerLock, obs.LockSummary{Name: "ht.b86", Acquires: 184}, obs.LockSummary{Name: "ht.b1", Acquires: 3})
	var b strings.Builder
	r.WriteLockMetrics(&b)
	var names []string
	for _, line := range strings.Split(b.String(), "\n")[1:4] {
		names = append(names, strings.Fields(line)[0])
	}
	if want := []string{"ht.b86", "ht.b2", "ht.b0"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("first rows %v, want %v; table:\n%s", names, want, b.String())
	}
	if !strings.Contains(b.String(), "ht.b1 ") || !strings.Contains(b.String(), "... 6 more locks") {
		t.Fatalf("want ht.b1 listed (tied with ht.b0) and 6 locks cut; table:\n%s", b.String())
	}
}
