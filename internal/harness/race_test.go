package harness

// Race-auditor integration: every fault mutant must trip the auditor
// within the standard seed sweep, every real lock must come out clean —
// and attaching the auditor must not perturb the simulation (digests
// stay equal to the committed goldens). u-SCL is deliberately absent
// from the clean list: its slot-reclaim protocol reuses waiter slots in
// a way that is safe by construction but not expressible as per-word
// happens-before.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
)

// raceCleanAlgs are the real locks asserted race-free.
var raceCleanAlgs = []string{
	"tas", "mcs", "mcstp", "shuffle", "malthusian", "blocking", "flexguard",
}

func TestRaceAuditorRealLocksClean(t *testing.T) {
	var want goldenFile
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixtures: %v", err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden fixtures: %v", err)
	}

	algs := raceCleanAlgs
	res, errs := ParallelMap(0, len(algs), func(i int) (Result, error) {
		c := goldenCell(algs[i])
		c.Races = true
		return RunSharedMem(c, 100)
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	for i, alg := range algs {
		r := res[i]
		if r.RaceTotal != 0 || len(r.Races) != 0 {
			t.Errorf("%s: %d false race(s); first: %v", alg, r.RaceTotal, r.Races)
			continue
		}
		// Non-perturbation: the audited run's event stream matches the
		// committed (unaudited) golden digest bit for bit.
		w, ok := want.Digests[alg]
		if !ok {
			t.Errorf("%s: no committed golden digest", alg)
			continue
		}
		if got := fmt.Sprintf("0x%016x", r.TraceDigest); got != w.Digest || r.TraceEvents != w.Events {
			t.Errorf("%s: auditor perturbed the run: digest %s (%d events), golden %s (%d events)",
				alg, got, r.TraceEvents, w.Digest, w.Events)
		}
	}
}

// raceExpect maps each mutant to the verdict its bug class produces:
// check-then-act and blind-release bugs destroy another thread's
// unobserved write (racy-overwrite); the dropped handover leaves no
// conflicting access pair at all and is only visible as a stranded
// spinner whose signal was never written (missed-signal).
var raceExpect = map[string]check.RaceKind{
	"tas-noatomic":     check.RaceOverwrite,
	"mcs-nohandover":   check.RaceMissedSignal,
	"flexguard-nowake": check.RaceOverwrite,
}

func hasRaceKind(r FuzzResult, kind check.RaceKind) bool {
	for _, rc := range r.Races {
		if rc.Kind == kind {
			return true
		}
	}
	return false
}

func TestRaceAuditorCatchesMutants(t *testing.T) {
	for _, mu := range fault.Mutants() {
		mu := mu
		if mu.LivenessOnly {
			// Crash-liveness mutants strand threads without any racy
			// access; the invariant checker owns them (orphaned-lock).
			continue
		}
		want, ok := raceExpect[mu.Name]
		if !ok {
			t.Fatalf("mutant %q has no expected race kind; extend raceExpect", mu.Name)
		}
		t.Run(mu.Name, func(t *testing.T) {
			t.Parallel()
			// Same sweep shape as findFailure: the first seed whose
			// schedule exposes the bug must also trip the auditor.
			for s := uint64(1); s <= 20; s++ {
				c := FuzzCfg{Mutant: mu.Name, Seed: s, Races: true}
				r, err := Fuzz(c)
				if err != nil {
					t.Fatal(err)
				}
				if r.RaceTotal == 0 {
					continue
				}
				if !hasRaceKind(r, want) {
					var got []check.RaceKind
					for _, rc := range r.Races {
						got = append(got, rc.Kind)
					}
					t.Fatalf("seed %d: expected a %q race, got %v", s, want, got)
				}
				// Bit-determinism: the same config replays to the same
				// verdict set.
				again, err := Fuzz(c)
				if err != nil {
					t.Fatal(err)
				}
				if again.RaceTotal != r.RaceTotal || fmt.Sprint(again.Races) != fmt.Sprint(r.Races) {
					t.Fatalf("seed %d: races changed across identical replays:\n%v\nvs\n%v",
						s, r.Races, again.Races)
				}
				return
			}
			t.Fatalf("%s: no race in 20 seeds — auditor blind to %q", mu.Name, mu.Doc)
		})
	}
}

// TestRaceAuditorCleanUnderFuzz: the stock algorithms stay race-free
// under the fuzzer's derived shapes too, not just the golden cell.
func TestRaceAuditorCleanUnderFuzz(t *testing.T) {
	algs := []string{"mcs", "blocking", "flexguard"}
	if testing.Short() {
		algs = algs[:1]
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			for s := uint64(1); s <= 8; s++ {
				r, err := Fuzz(FuzzCfg{Alg: alg, Seed: s, Races: true})
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed() {
					t.Fatalf("seed %d: invariant violations on a stock lock: %v", s, r.Violations)
				}
				if r.RaceTotal != 0 {
					t.Fatalf("seed %d: false race(s): %v", s, r.Races)
				}
			}
		})
	}
}
