package locks_test

// Tests over every lock in the harness catalog. Each lock is built the
// way the experiments build it, through harness.NewEnv, so it runs on
// the machine its catalog row asks for (the Preemption Monitor for the
// FlexGuard variants, the slice-extension grant for the *-ext ones).

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/sim"
)

// correct lists the catalog's correct locks outside the robust group,
// which TestRobustVariantsMutex covers: the fault mutants are broken by
// design.
var correct = harness.Names(harness.Substrate, harness.Figures, harness.Ablation)

// newLock builds one alg lock on a fresh sim.Small(ncpu) machine.
func newLock(t *testing.T, alg string, ncpu int, seed uint64) (*sim.Machine, locks.Lock) {
	t.Helper()
	cfg := sim.Small(ncpu)
	cfg.Seed = seed
	e, err := harness.NewEnv(harness.EnvOptions{Config: cfg, Alg: alg})
	if err != nil {
		t.Fatal(err)
	}
	return e.M, e.NewLock("L")
}

// TestMutualExclusionAllLocks: every algorithm must be a correct mutex in
// both subscription regimes.
func TestMutualExclusionAllLocks(t *testing.T) {
	for _, alg := range correct {
		t.Run(alg+"/under", func(t *testing.T) {
			m, l := newLock(t, alg, 8, 1)
			got, want, _ := locks.RunMutex(m, l, 4, 15_000_000)
			if got != want {
				t.Fatalf("%s lost updates: %d vs %d", alg, got, want)
			}
			if want == 0 {
				t.Fatalf("%s made no progress", alg)
			}
		})
		t.Run(alg+"/over", func(t *testing.T) {
			m, l := newLock(t, alg, 2, 7)
			got, want, _ := locks.RunMutex(m, l, 8, 25_000_000)
			if got != want {
				t.Fatalf("%s lost updates oversubscribed: %d vs %d", alg, got, want)
			}
			if want == 0 {
				t.Fatalf("%s made no progress oversubscribed", alg)
			}
		})
	}
}

// TestNoStarvationAllLocks: for the algorithms with fair admission, every
// thread completes at least one CS even oversubscribed. Unfair-by-design
// locks are excluded: TAS/TATAS/spin-ext hand the lock to whoever owns the
// cache line, Malthusian deliberately parks a passive set (§2.2), and the
// Shuffle lock's fast path favors the current holder — the paper's
// fairness figure (5b) quantifies exactly this.
func TestNoStarvationAllLocks(t *testing.T) {
	unfair := map[string]bool{
		"tas": true, "tatas": true, "spin-ext": true,
		"malthusian": true, "shuffle": true,
	}
	for _, alg := range correct {
		if unfair[alg] {
			continue
		}
		t.Run(alg, func(t *testing.T) {
			m, l := newLock(t, alg, 2, 3)
			_, _, ops := locks.RunMutex(m, l, 6, 60_000_000)
			for i, o := range ops {
				if o == 0 {
					t.Fatalf("%s starved thread %d: %v", alg, i, ops)
				}
			}
		})
	}
}

// TestUncontendedAllLocks: a single thread acquiring any lock repeatedly
// must succeed and terminate promptly.
func TestUncontendedAllLocks(t *testing.T) {
	for _, alg := range correct {
		t.Run(alg, func(t *testing.T) {
			m, l := newLock(t, alg, 2, 5)
			n := 0
			m.Spawn("solo", func(p *sim.Proc) {
				for i := 0; i < 200; i++ {
					l.Lock(p)
					p.Compute(20)
					l.Unlock(p)
					n++
				}
			})
			m.Run(400_000_000)
			if n != 200 {
				t.Fatalf("%s: completed %d/200 uncontended acquisitions", alg, n)
			}
		})
	}
}

// TestRobustVariantsMutex: crash-free, the robust variants are correct
// mutexes in both subscription regimes.
func TestRobustVariantsMutex(t *testing.T) {
	for _, alg := range harness.RobustAlgorithms {
		t.Run(alg+"/under", func(t *testing.T) {
			m, l := newLock(t, alg, 8, 1)
			got, want, _ := locks.RunMutex(m, l, 4, 15_000_000)
			if got != want || want == 0 {
				t.Fatalf("%s lost updates: %d vs %d", alg, got, want)
			}
		})
		t.Run(alg+"/over", func(t *testing.T) {
			m, l := newLock(t, alg, 2, 7)
			got, want, _ := locks.RunMutex(m, l, 8, 25_000_000)
			if got != want || want == 0 {
				t.Fatalf("%s lost updates oversubscribed: %d vs %d", alg, got, want)
			}
		})
	}
}

// TestLookup: a command line reaches the substrate, figure and robust
// locks by name; the ablation and mutant rows only from code.
func TestLookup(t *testing.T) {
	for _, name := range []string{"mcs", "flexguard", "robust/mcs"} {
		if _, err := harness.Lookup(name); err != nil {
			t.Fatalf("%s should resolve: %v", name, err)
		}
	}
	for _, name := range []string{"definitely-not-a-lock", "flexguard/per-lock", "tas-noatomic"} {
		if _, err := harness.Lookup(name); err == nil {
			t.Fatalf("%s should not resolve by name", name)
		}
	}
}
