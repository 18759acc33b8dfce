package sim_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads/sharedmem"
)

// TestLiveEventHeap pins the live-only event queue on the figure sweep's
// most oversubscribed sharedmem shape (65 threads on 26 contexts, 1M-tick
// timeslices). Sampled before every event, the queue must hold no
// canceled entry — with no weak (telemetry) events attached, Len equals
// StrongLen exactly — and its peak length must stay within
// liveHeapPerThread entries per thread. A queue that deletes lazily keeps
// every canceled slice timer until its deadline reaches the head, up to
// a whole timeslice later; under blocking it peaks at 3010 entries here.
//
// It also pins the two tiers' routing: the heap tier holds at most one
// entry per context (its slice timer), and the timing wheel serves at
// least minWheelShare of the pops — the near-term op completions,
// switches and wakes that make up the event mix.
func TestLiveEventHeap(t *testing.T) {
	const (
		threads           = 65
		dur               = sim.Time(1_000_000)
		liveHeapPerThread = 2
		minWheelShare     = 0.99
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
		var samples, dead, peak, heapPeak, heapPops int
		e.M.RunSampled(dur+dur/4, func(n, strong int) {
			samples++
			if n != strong {
				dead++
			}
			peak = max(peak, n)
			_, heap, heapNext := e.M.QueueTiers()
			heapPeak = max(heapPeak, heap)
			if heapNext {
				heapPops++
			}
		})
		if tr.Digest() != want.TraceDigest || tr.Seen != want.TraceEvents {
			t.Fatalf("%s: sampled run diverged from Run: digest %016x/%d events, want %016x/%d",
				alg, tr.Digest(), tr.Seen, want.TraceDigest, want.TraceEvents)
		}
		wheelShare := 1 - float64(heapPops)/float64(samples)
		t.Logf("%s: %d samples, peak %d entries, heap tier peak %d, %d heap pops (wheel share %.5f)", alg, samples, peak, heapPeak, heapPops, wheelShare)
		if dead != 0 {
			t.Errorf("%s: %d of %d samples held canceled entries", alg, dead, samples)
		}
		if peak > liveHeapPerThread*threads {
			t.Errorf("%s: peak queue length %d, want <= %d (%d per thread)", alg, peak, liveHeapPerThread*threads, liveHeapPerThread)
		}
		if heapPeak > cfg.NumCPUs {
			t.Errorf("%s: heap tier peaked at %d entries, want <= %d (one per context)", alg, heapPeak, cfg.NumCPUs)
		}
		if wheelShare < minWheelShare {
			t.Errorf("%s: the wheel served %.4f of pops, want >= %.2f", alg, wheelShare, minWheelShare)
		}
	}
}
