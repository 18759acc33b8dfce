package sim_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads/sharedmem"
)

// TestLiveEventHeap pins the live-only event heap on the figure sweep's
// most oversubscribed sharedmem shape (65 threads on 26 contexts, 1M-tick
// timeslices). Sampled before every event, the queue must hold no
// canceled entry — with no weak (telemetry) events attached, Len equals
// StrongLen exactly — and its peak length must stay within
// liveHeapPerThread entries per thread. A heap that deletes lazily keeps
// every canceled slice timer until its deadline reaches the head, up to
// a whole timeslice later; under blocking it peaks at 3010 entries here.
func TestLiveEventHeap(t *testing.T) {
	const (
		threads           = 65
		dur               = sim.Time(1_000_000)
		liveHeapPerThread = 2
	)
	for _, alg := range []string{"blocking", "mcs", "flexguard"} {
		c := harness.RunCfg{
			Config: harness.ScaleConfig(sim.Intel(), 0.25), Alg: alg,
			Threads: threads, Duration: dur, Seed: 1, Trace: true,
		}
		want, err := harness.RunSharedMem(c, 100)
		if err != nil {
			t.Fatal(err)
		}

		cfg := c.Config
		cfg.Seed = c.Seed
		cfg.MaxThreads = threads + 8
		e, err := harness.NewEnv(harness.EnvOptions{Config: cfg, Alg: alg})
		if err != nil {
			t.Fatal(err)
		}
		tr := e.M.AttachTracer(256)
		sharedmem.Build(e.M, sharedmem.Options{Threads: threads, Deadline: dur, ThinkTicks: 100, NewLock: e.NewLock})
		var samples, dead, peak int
		e.M.RunSampled(dur+dur/4, func(n, strong int) {
			samples++
			if n != strong {
				dead++
			}
			peak = max(peak, n)
		})
		if tr.Digest() != want.TraceDigest || tr.Seen != want.TraceEvents {
			t.Fatalf("%s: sampled run diverged from Run: digest %016x/%d events, want %016x/%d",
				alg, tr.Digest(), tr.Seen, want.TraceDigest, want.TraceEvents)
		}
		t.Logf("%s: %d samples, peak %d entries", alg, samples, peak)
		if dead != 0 {
			t.Errorf("%s: %d of %d samples held canceled entries", alg, dead, samples)
		}
		if peak > liveHeapPerThread*threads {
			t.Errorf("%s: peak queue length %d, want <= %d (%d per thread)", alg, peak, liveHeapPerThread*threads, liveHeapPerThread)
		}
	}
}
