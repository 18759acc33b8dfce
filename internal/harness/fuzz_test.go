package harness

// Schedule-fuzz tests: sweep random machine shapes, subscription ratios
// and seeds across every algorithm — now routed through harness.Fuzz, so
// every run is watched by the full invariant checker (mutual exclusion,
// lost wakeups, stalled waiters, conservation, deadlock) instead of only
// the workload's end-state witness. Each failure seed is a deterministic
// reproducer; `go test -fuzz=FuzzSchedules` explores beyond the corpus.

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workloads/sharedmem"
)

// requireClean fails the test if the run violated any invariant, hung,
// or made no progress.
func requireClean(t *testing.T, label string, r FuzzResult) {
	t.Helper()
	for _, v := range r.Violations {
		t.Errorf("%s: %s", label, v.String())
	}
	if r.Deadlocked {
		t.Errorf("%s: deadlock\n%s", label, r.DeadlockDump)
	}
	if r.HitGrace {
		t.Errorf("%s: still active at grace horizon %d: possible livelock", label, r.Grace)
	}
	if r.Ops == 0 {
		t.Errorf("%s: no progress", label)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// fuzzOne runs one randomized configuration for one algorithm under the
// invariant checker.
func fuzzOne(t *testing.T, alg string, seed uint64) {
	t.Helper()
	c := FuzzCfg{Alg: alg, Seed: seed}
	r, err := Fuzz(c)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, c.Replay(), r)
}

// TestFuzzAllAlgorithms: ~a dozen random schedules per algorithm.
func TestFuzzAllAlgorithms(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 3
	}
	algs := append([]string{}, AllAlgorithms...)
	for _, alg := range algs {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			for s := 0; s < rounds; s++ {
				fuzzOne(t, alg, uint64(1000*s+13))
			}
		})
	}
}

// TestFuzzWithPlans: every fault-plan preset against a core algorithm
// set. The stock algorithms must hold every invariant under adversarial
// schedules, futex faults, and monitor degradation alike.
func TestFuzzWithPlans(t *testing.T) {
	algs := []string{"blocking", "mcs", "shuffle", "flexguard", "flexguard-ext"}
	seeds := []uint64{7, 4242}
	if testing.Short() {
		algs = []string{"blocking", "mcs", "flexguard"}
		seeds = seeds[:1]
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			for _, np := range fault.Plans() {
				for _, seed := range seeds {
					c := FuzzCfg{Alg: alg, Seed: seed, Plan: np.Plan}
					r, err := Fuzz(c)
					if err != nil {
						t.Fatal(err)
					}
					requireClean(t, "plan "+np.Name+": "+c.Replay(), r)
				}
			}
		})
	}
}

// TestFuzzDegradedMonitor is the graceful-degradation acceptance test:
// under every monitor-degradation preset, FlexGuard (whose health check
// is armed by Fuzz for these plans) must complete every config with zero
// violations and no deadlock — the stale fallback to always-block keeps
// it safe even when the NPCS signal lies.
func TestFuzzDegradedMonitor(t *testing.T) {
	seeds := []uint64{1, 77, 1234, 99991}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, np := range fault.DegradedPlans() {
		np := np
		t.Run(np.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				c := FuzzCfg{Alg: "flexguard", Seed: seed, Plan: np.Plan}
				r, err := Fuzz(c)
				if err != nil {
					t.Fatal(err)
				}
				requireClean(t, c.Replay(), r)
			}
		})
	}
}

// TestFuzzReplayRoundTrip: the replay spec is a faithful serialization —
// parsing it back and re-running reproduces the identical outcome.
func TestFuzzReplayRoundTrip(t *testing.T) {
	c := FuzzCfg{Alg: "flexguard", Seed: 31, Plan: fault.Plan{
		SliceJitterPct: 0.25, WakeDelay: 3_000, SpuriousWakeProb: 0.125, NPCSDelay: 4,
	}}
	r1, err := Fuzz(c)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ParseReplay(c.Replay())
	if err != nil {
		t.Fatalf("parse %q: %v", c.Replay(), err)
	}
	if c2.Plan != c.Plan || c2.Seed != c.Seed || c2.Alg != c.Alg {
		t.Fatalf("round-trip changed config: %+v vs %+v", c2, c)
	}
	r2, err := Fuzz(c2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ops != r2.Ops || r1.Quiesced != r2.Quiesced || len(r1.Violations) != len(r2.Violations) {
		t.Fatalf("replay diverged: ops %d vs %d, quiesced %d vs %d",
			r1.Ops, r2.Ops, r1.Quiesced, r2.Quiesced)
	}
}

// TestReplayGrammarRoundTrip: parse → render → parse is the identity for
// every key the grammar documents, crash-plan keys included. The specs
// here mirror the README's grammar section.
func TestReplayGrammarRoundTrip(t *testing.T) {
	specs := []string{
		"alg=flexguard seed=31 plan=none",
		"alg=mcstp seed=7 cpus=4 threads=9 horizon=2500000 plan=crash-queue=0.2",
		"alg=robust/blocking seed=29 plan=crash-hold=1",
		"alg=robust/mcs seed=3 plan=crash-hold=0.05,crash-queue=0.05,crash-parked=0.2,crash-max=3",
		"alg=blocking seed=5 plan=crash-parked=0.5,crash-parked-after=12000",
		"seed=1 mutant=robust-norecover cpus=3 threads=2 horizon=400000 plan=crash-hold=1",
		"alg=flexguard seed=11 plan=crash-window=0.3,wake-delay=3000",
	}
	for _, spec := range specs {
		c, err := ParseReplay(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		rendered := c.Replay()
		c2, err := ParseReplay(rendered)
		if err != nil {
			t.Fatalf("re-parse %q (rendered from %q): %v", rendered, spec, err)
		}
		if c2 != c {
			t.Fatalf("round-trip changed config:\n  spec     %q\n  rendered %q\n  %+v vs %+v",
				spec, rendered, c, c2)
		}
		if c2.Replay() != rendered {
			t.Fatalf("render not a fixed point: %q then %q", rendered, c2.Replay())
		}
	}
}

// TestParseReplayRejectsNegative: a negative shape value is an error
// naming its key. It used to fall back silently to the value derived
// from the seed.
func TestParseReplayRejectsNegative(t *testing.T) {
	for _, key := range []string{"cpus", "threads", "horizon"} {
		spec := "alg=mcs seed=7 " + key + "=-1 plan=none"
		if _, err := ParseReplay(spec); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("ParseReplay(%q) = %v, want an error naming %q", spec, err, key)
		}
	}
}

// FuzzParseReplay: parsing never panics, an accepted spec pins no
// negative shape, and it round-trips through Replay to an equal config.
func FuzzParseReplay(f *testing.F) {
	for _, s := range []string{
		"alg=flexguard seed=31 plan=none",
		"alg=mcstp seed=7 cpus=4 threads=9 horizon=2500000 plan=crash-queue=0.2",
		"seed=1 mutant=robust-norecover cpus=3 threads=2 horizon=400000 plan=crash-hold=1",
		"alg=flexguard seed=11 plan=chaos",
		"seed=1 cpus=-1", "seed=1 threads=-3", "seed=1 horizon=-5",
		"seed=2 plan=preempt-any=NaN", "alg=a=b seed=+3 cpus=+2", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseReplay(s)
		if err != nil {
			return
		}
		if c.CPUs < 0 || c.Threads < 0 || c.Horizon < 0 {
			t.Fatalf("ParseReplay(%q) accepted a negative shape: %+v", s, c)
		}
		c2, err := ParseReplay(c.Replay())
		if err != nil {
			t.Fatalf("ParseReplay(%q) = %+v, whose Replay %q is rejected: %v", s, c, c.Replay(), err)
		}
		if c2 != c {
			t.Fatalf("ParseReplay(%q): round trip through %q changed %+v to %+v", s, c.Replay(), c, c2)
		}
	})
}

// FuzzSchedules is the native fuzz target: go's mutator explores
// (algorithm, seed, fault-plan bits); the invariant checker is the
// oracle. The corpus seeds cover each preset family. Run with
// `go test -fuzz=FuzzSchedules ./internal/harness/`.
func FuzzSchedules(f *testing.F) {
	f.Add(uint8(0), uint64(13), uint64(0))
	f.Add(uint8(5), uint64(1013), uint64(0b111))          // clh + slice jitter
	f.Add(uint8(7), uint64(2013), uint64(0b101<<3))       // mcs + forced preemption
	f.Add(uint8(12), uint64(3013), uint64(0b1111<<12))    // flexguard + wake delay
	f.Add(uint8(12), uint64(4013), uint64(0b110<<19))     // flexguard + NPCS delay
	f.Add(uint8(12), uint64(5013), uint64(0b11<<31))      // flexguard + detach
	f.Add(uint8(12), uint64(6013), uint64(0b11<<37))      // flexguard + stuck NPCS
	f.Add(uint8(14), uint64(7013), uint64(0xfff))         // flexguard-ext + mixed
	f.Add(uint8(9), uint64(8013), uint64(0b101<<16|0b11)) // shuffle + spurious wakes
	f.Fuzz(func(t *testing.T, algIdx uint8, seed uint64, planBits uint64) {
		alg := AllAlgorithms[int(algIdx)%len(AllAlgorithms)]
		c := FuzzCfg{Alg: alg, Seed: seed, Plan: fault.FromBits(planBits)}
		r, err := Fuzz(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range r.Violations {
			t.Errorf("%s: %s", c.Replay(), v.String())
		}
		if r.Deadlocked {
			t.Errorf("%s: deadlock\n%s", c.Replay(), r.DeadlockDump)
		}
	})
}

// TestFuzzFlexGuardPerLock: the ablation mode through the same fuzz.
func TestFuzzFlexGuardPerLock(t *testing.T) {
	for s := 0; s < 6; s++ {
		seed := uint64(500*s + 3)
		rng := dist.NewRand(seed)
		cfg := sim.Small(2 + rng.Intn(4))
		cfg.Seed = seed
		threads := 2 + rng.Intn(3*cfg.NumCPUs)
		e, err := NewEnv(EnvOptions{Config: cfg, Alg: "flexguard/per-lock"})
		if err != nil {
			t.Fatal(err)
		}
		w := sharedmem.Build(e.M, sharedmem.Options{
			Threads:  threads,
			Deadline: 4_000_000,
			NewLock:  e.NewLock,
		})
		e.M.Run(8_000_000)
		if ok, a, b := w.Validate(e.M); !ok {
			t.Fatalf("seed %d: per-lock ablation lost updates: %d vs %d", seed, a, b)
		}
	}
}

// TestFuzzDeterminism: the same seed must give bit-identical results for
// every algorithm (the property debugging and the figures rely on).
func TestFuzzDeterminism(t *testing.T) {
	for _, alg := range []string{"blocking", "mcs", "shuffle", "flexguard"} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			run := func() (uint64, int64, int64) {
				cfg := sim.Small(3)
				cfg.Seed = 99
				e, err := NewEnv(EnvOptions{Config: cfg, Alg: alg})
				if err != nil {
					t.Fatal(err)
				}
				w := sharedmem.Build(e.M, sharedmem.Options{
					Threads:  7,
					Deadline: 4_000_000,
					NewLock:  e.NewLock,
				})
				e.M.Run(6_000_000)
				_, a, _ := w.Validate(e.M)
				return a, e.M.TotalSwitches, e.M.TotalPreemptions
			}
			a1, s1, p1 := run()
			a2, s2, p2 := run()
			if a1 != a2 || s1 != s2 || p1 != p2 {
				t.Fatalf("%s nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", alg, a1, s1, p1, a2, s2, p2)
			}
		})
	}
}

// TestFuzzInjectedDeterminism: determinism must survive fault injection —
// the injector draws from its own stream, so two identical injected runs
// agree, and the checker sees the identical event sequence.
func TestFuzzInjectedDeterminism(t *testing.T) {
	plan, _ := fault.PlanByName("chaos")
	run := func() (int64, sim.Time, int) {
		r, err := Fuzz(FuzzCfg{Alg: "flexguard", Seed: 555, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		return r.Ops, r.Quiesced, len(r.Violations)
	}
	o1, q1, v1 := run()
	o2, q2, v2 := run()
	if o1 != o2 || q1 != q2 || v1 != v2 {
		t.Fatalf("injected run nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", o1, q1, v1, o2, q2, v2)
	}
}

// TestFuzzLockHandoffUnderKill: repeated short horizons (threads killed at
// arbitrary points) never corrupt a fresh machine's determinism or hang
// shutdown.
func TestFuzzLockHandoffUnderKill(t *testing.T) {
	for s := 0; s < 8; s++ {
		cfg := sim.Small(2)
		cfg.Seed = uint64(s + 1)
		e, err := NewEnv(EnvOptions{Config: cfg, Alg: "flexguard"})
		if err != nil {
			t.Fatal(err)
		}
		sharedmem.Build(e.M, sharedmem.Options{
			Threads:  6,
			Deadline: 1 << 50, // never stop voluntarily: force mid-CS kills
			NewLock:  e.NewLock,
		})
		// Short horizon: shutdown lands at an arbitrary lock state.
		e.M.Run(sim.Time(100_000 * (s + 1)))
		// The machine must have quiesced its goroutines (no panic/leak);
		// nothing to assert beyond clean completion.
	}
}
