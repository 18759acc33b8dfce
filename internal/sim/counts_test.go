package sim_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads/sharedmem"
)

// shape is a sharedmem cell at seed 1: threads on cfg, run to dur plus a
// quarter, with think ticks between critical sections.
type shape struct {
	name    string
	cfg     sim.Config
	threads int
	dur     sim.Time
	think   sim.Time
}

// counts are the deterministic outputs of one run: the trace digest,
// the traced event count, the coroutine resumes, the coroutine switches
// those resumes cost, and the peak event queue length.
type counts struct {
	digest                    uint64
	events, resumes, switches int64
	peak                      int
}

// run runs the cell under alg with fault injector fi (nil for none).
func (s shape) run(t *testing.T, alg string, fi sim.FaultInjector) counts {
	t.Helper()
	cfg := s.cfg
	cfg.Seed = 1
	if need := s.threads + 8; cfg.MaxThreads < need {
		cfg.MaxThreads = need
	}
	e, err := harness.NewEnv(harness.EnvOptions{Config: cfg, Alg: alg})
	if err != nil {
		t.Fatal(err)
	}
	tr := e.M.AttachTracer(256)
	e.M.SetFaultInjector(fi)
	sharedmem.Build(e.M, sharedmem.Options{Threads: s.threads, Deadline: s.dur, ThinkTicks: s.think, NewLock: e.NewLock})
	peak := 0
	e.M.RunSampled(s.dur+s.dur/4, func(n, _ int) { peak = max(peak, n) })
	return counts{tr.Digest(), tr.Seen, e.M.Resumes(), e.M.CoroSwitches(), peak}
}

// smallShape is TestInjectedInlineBatching's cell; sweepShape is the
// figure sweep's most oversubscribed sharedmem cell (65 threads on the
// 26-context Intel profile).
var (
	smallShape = shape{"small", sim.Small(4), 8, 3_000_000, 0}
	sweepShape = shape{"sweep", harness.ScaleConfig(sim.Intel(), 0.25), 65, 3_000_000, 100}
)

// TestPinnedCounts pins the exact trace digest, event count, coroutine
// resume count, coroutine switch count and peak queue length of fixed
// sharedmem cells. The event loop's structure (where a thread is
// resumed, which side schedules its op, which goroutine runs the loop)
// must never move the first three: the digest and event count fix the
// simulated behavior, and the resume count fixes how many ops complete
// inline rather than through the queue. The switch count fixes what the
// nested handoff saves: a loop on Run's goroutine alone pays exactly two
// switches per resume, and handing the turn straight back to the
// resuming thread must stay below that.
func TestPinnedCounts(t *testing.T) {
	cases := []struct {
		shape shape
		alg   string
		want  counts
	}{
		{smallShape, "blocking", counts{0xf73b637b5fbe2b1f, 12933, 14523, 15544, 10}},
		{smallShape, "mcs", counts{0x82534fb39f62560d, 2866, 4992, 5212, 8}},
		{smallShape, "flexguard", counts{0xe72994b09d3dccc9, 26733, 56969, 62708, 10}},
		{sweepShape, "blocking", counts{0x4e1e6306c12d8ec5, 74357, 83802, 98240, 56}},
		{sweepShape, "mcs", counts{0xecc844d89e141b6e, 11801, 30152, 32660, 52}},
		{sweepShape, "flexguard", counts{0xbe3e5444e4fb5ba5, 32811, 66780, 76658, 52}},
	}
	for _, c := range cases {
		got := c.shape.run(t, c.alg, nil)
		t.Logf("%s/%s: digest %#016x, %d events, %d resumes, %d switches, peak %d", c.shape.name, c.alg,
			got.digest, got.events, got.resumes, got.switches, got.peak)
		if got != c.want {
			t.Errorf("%s/%s: digest %#016x, %d events, %d resumes, %d switches, peak %d; want %#016x, %d, %d, %d, %d", c.shape.name, c.alg,
				got.digest, got.events, got.resumes, got.switches, got.peak,
				c.want.digest, c.want.events, c.want.resumes, c.want.switches, c.want.peak)
		}
		if got.switches >= 2*got.resumes {
			t.Errorf("%s/%s: %d switches for %d resumes, want fewer than two per resume", c.shape.name, c.alg, got.switches, got.resumes)
		}
	}
}
