package harness

// Open-loop suite: -parallel byte-identity for the scenario grid, the
// emergent saturation knee the acceptance criteria name, golden Summary
// fixtures, and the fault/crash fuzz satellite (one quick cell per
// arrival pattern; the checker must stay clean and arrival events must
// never mask a deadlock verdict).

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// detOpenLoopGrid is the canonical small grid: Poisson and bursty (the
// acceptance-criteria pair) at an under- and an over-saturated rate,
// FlexGuard vs blocking, short horizon.
func detOpenLoopGrid(parallel int) OpenLoopGridCfg {
	return OpenLoopGridCfg{
		Config:   sim.Small(4),
		Patterns: []string{"poisson", "bursty"},
		RatesMs:  []float64{100, 800},
		Algs:     []string{"flexguard", "blocking"},
		Duration: 8_000_000,
		Seed:     7,
		Parallel: parallel,
	}
}

// renderSummaries renders a grid result as the loadbench stdout block —
// the bytes the CI smoke step diffs across -parallel values.
func renderSummaries(results []OpenLoopResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s %s\n", OpenLoopCellName(r, true), SummaryLine(OpenLoopSummary(r)...))
	}
	return b.String()
}

// TestOpenLoopParallelIdentity: the full grid result — accounting,
// percentiles, trace digests, rendered summaries — is identical at
// -parallel 1, 4 and 8.
func TestOpenLoopParallelIdentity(t *testing.T) {
	base, err := OpenLoopGrid(detOpenLoopGrid(1))
	if err != nil {
		t.Fatal(err)
	}
	text := renderSummaries(base)
	for _, par := range []int{4, 8} {
		got, err := OpenLoopGrid(detOpenLoopGrid(par))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("grid results differ between -parallel 1 and %d", par)
		}
		if g := renderSummaries(got); g != text {
			t.Errorf("summary bytes differ between -parallel 1 and %d:\n%s\nvs\n%s", par, text, g)
		}
	}
	for _, r := range base {
		if r.TraceEvents == 0 {
			t.Errorf("%s: no trace digest recorded", OpenLoopCellName(r, true))
		}
		if r.Deadlocked {
			t.Errorf("%s: deadlocked", OpenLoopCellName(r, true))
		}
	}
}

// TestOpenLoopSaturationKnee pins the acceptance criterion: crossing
// the knee must show up as (a) pool growth past the core count with no
// thread knob anywhere, (b) achieved throughput falling measurably
// short of offered, and (c) a response-latency blowup — while the
// undersaturated cell shows none of the three.
func TestOpenLoopSaturationKnee(t *testing.T) {
	run := func(rate float64) OpenLoopResult {
		r, err := RunOpenLoop(OpenLoopCfg{
			Config:   sim.Small(4),
			Alg:      "flexguard",
			Pattern:  "poisson",
			RateMs:   rate,
			Duration: 10_000_000,
			Seed:     13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// 4 cores at ~10 µs mean service ≈ 400 req/ms capacity.
	under, over := run(80), run(1200)

	if over.PeakWorkers <= 4 {
		t.Errorf("overload peak workers %d, want > 4 cores (emergent oversubscription)", over.PeakWorkers)
	}
	if over.AchievedPerSec >= 0.9*over.OfferedPerSec {
		t.Errorf("overload achieved %.0f/s vs offered %.0f/s: no saturation", over.AchievedPerSec, over.OfferedPerSec)
	}
	if under.AchievedPerSec < 0.95*under.OfferedPerSec {
		t.Errorf("undersaturated achieved %.0f/s vs offered %.0f/s: should keep up", under.AchievedPerSec, under.OfferedPerSec)
	}
	if over.RespP99US < 4*under.RespP99US {
		t.Errorf("p99 %.1fµs overloaded vs %.1fµs undersaturated: queueing delay not visible", over.RespP99US, under.RespP99US)
	}
	if under.Deadlocked || over.Deadlocked {
		t.Error("open-loop cells deadlocked")
	}
}

// TestOpenLoopQueueGaugeRecorded: the flight recorder's queue-depth
// gauge shows real backlog in an oversaturated run.
func TestOpenLoopQueueGaugeRecorded(t *testing.T) {
	r, err := RunOpenLoop(OpenLoopCfg{
		Config:   sim.Small(2),
		Alg:      "blocking",
		Pattern:  "poisson",
		RateMs:   800,
		Duration: 5_000_000,
		Seed:     3,
		Window:   500_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Series == nil || len(r.Series.Points) == 0 {
		t.Fatal("no flight-recorder series")
	}
	var peak int64
	for _, p := range r.Series.Points {
		if p.Queue > peak {
			peak = p.Queue
		}
	}
	if peak == 0 {
		t.Errorf("queue gauge flat at zero across %d windows of a 4× oversaturated run", len(r.Series.Points))
	}
}

const openLoopGoldenPath = "testdata/openloop_summaries.golden"

// TestOpenLoopGoldenSummaries diffs the canonical grid's Summary block
// against the committed fixture. Regenerate after a reviewed behaviour
// change with:
//
//	go test ./internal/harness -run TestOpenLoopGoldenSummaries -update
func TestOpenLoopGoldenSummaries(t *testing.T) {
	results, err := OpenLoopGrid(detOpenLoopGrid(0))
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(renderSummaries(results))
	if *update {
		if err := os.WriteFile(openLoopGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", openLoopGoldenPath)
		return
	}
	want, err := os.ReadFile(openLoopGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("open-loop summaries drifted from %s:\n--- want\n%s--- got\n%s",
			openLoopGoldenPath, want, got)
	}
}

// TestFuzzOpenLoopFaultPlans: one quick open-loop cell per arrival
// pattern under a schedule-chaos plan and under a crash plan. The
// invariant checker must stay clean, conservation must hold through
// crashes, and no cell may still be running at the grace horizon (an
// arrival chain that outlives a wedged system would be exactly the
// masking bug this suite exists to prevent). Each cell's outcome is
// also pinned exactly: the run is deterministic, so a moved quiesce
// time, completion, loss or crash count means the run itself changed.
func TestFuzzOpenLoopFaultPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign cells are not -short")
	}
	chaos, ok := fault.PlanByName("preempt-any")
	if !ok {
		t.Fatal("preempt-any plan missing")
	}
	var crash fault.Plan
	for _, np := range fault.CrashPlans() {
		if np.Name == "crash-queue" {
			crash = np.Plan
		}
	}
	if crash.IsZero() {
		t.Fatal("crash-queue plan missing")
	}
	type pin struct {
		quiesced        sim.Time
		completed, lost int64
		crashes         int64
	}
	pins := map[string]pin{
		"poisson/chaos":    {5682925, 324, 0, 0},
		"poisson/crash":    {5437634, 315, 1, 1},
		"bursty/chaos":     {5665574, 327, 0, 0},
		"bursty/crash":     {5693163, 327, 1, 1},
		"diurnal/chaos":    {5617429, 334, 0, 0},
		"diurnal/crash":    {5490807, 315, 1, 1},
		"antagonist/chaos": {5640093, 327, 0, 0},
		"antagonist/crash": {5606000, 323, 1, 1},
	}
	for _, pattern := range traffic.Patterns() {
		for _, tc := range []struct {
			name string
			alg  string
			plan fault.Plan
		}{
			// Schedule chaos on the stock FlexGuard path; crashes on the
			// robust lock — killing a queued waiter of a non-robust lock
			// orphans it by design, which is PR 7's point, not a traffic
			// bug.
			{"chaos", "", chaos},
			{"crash", "robust/blocking", crash},
		} {
			t.Run(pattern+"/"+tc.name, func(t *testing.T) {
				res, err := FuzzOpenLoop(OpenLoopFuzzCfg{
					Alg:     tc.alg,
					Pattern: pattern,
					Seed:    91,
					Plan:    tc.plan,
					Horizon: 2_000_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed() {
					for _, v := range res.Violations {
						t.Errorf("violation: %+v", v)
					}
				}
				if res.HitGrace {
					t.Errorf("machine still active at grace horizon %d (arrival chain outlived the run)", res.Grace)
				}
				if res.Deadlocked {
					t.Errorf("deadlock under %s: %s", tc.name, res.DeadlockDump)
				}
				if tc.name == "crash" && res.Crashes > 0 && res.Stats.Lost == 0 && res.Stats.Completed == 0 {
					t.Error("crashes occurred but nothing was completed or resolved lost")
				}
				got := pin{res.Quiesced, res.Stats.Completed, res.Stats.Lost, res.Crashes}
				if want := pins[pattern+"/"+tc.name]; got != want {
					t.Errorf("outcome (quiesced, completed, lost, crashes) = %v, want %v", got, want)
				}
			})
		}
	}
}

// TestFuzzOpenLoopDeadlockVerdictNotMasked drives the fuzz path with
// the no-handover MCS mutant's provoking plan... the simpler, stronger
// pin lives in the traffic package (a never-releasing lock); here we
// assert the fuzz plumbing itself reports a watchdog stall as a
// deadlock rather than HitGrace.
func TestFuzzOpenLoopDeadlockVerdictNotMasked(t *testing.T) {
	// degraded-blocking with an extreme wake delay wedges progress long
	// enough to trip the engine watchdog well inside the horizon.
	res, err := FuzzOpenLoop(OpenLoopFuzzCfg{
		Alg:     "blocking",
		Pattern: "poisson",
		Seed:    17,
		Plan:    fault.Plan{WakeDelay: 50_000_000},
		Horizon: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitGrace {
		t.Fatal("run hit the grace horizon: arrival events kept a stalled machine alive")
	}
	if !res.Stalled && res.Stats.Completed == 0 {
		t.Error("nothing completed yet the watchdog never recorded a stall")
	}
}
