package harness

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads/dbindex"
	"repro/internal/workloads/dedup"
	"repro/internal/workloads/hashtable"
	"repro/internal/workloads/raytrace"
)

// nameCell builds, and runs, one machine whose word and lock names
// TestNames pins.
type nameCell struct {
	label string
	run   func(testing.TB) *sim.Machine
}

// nameCells are short two-thread sharedmem cells: every algorithm, the
// robust variants and the fault mutants, each run long enough for every
// thread to allocate its queue nodes.
func nameCells() []nameCell {
	const horizon = sim.Time(200_000)
	cell := func(alg string) func(testing.TB) *sim.Machine {
		return func(tb testing.TB) *sim.Machine {
			cfg := sim.Small(2)
			cfg.Seed = 1
			cfg.MaxThreads = 10
			e, err := NewEnv(EnvOptions{Config: cfg, Alg: alg})
			if err != nil {
				tb.Fatal(err)
			}
			sharedmemWork(100)(e, 2, horizon)
			e.M.Run(horizon)
			return e.M
		}
	}
	var out []nameCell
	for _, alg := range CrashAlgorithms() {
		out = append(out, nameCell{alg, cell(alg)})
	}
	for _, mu := range Names(Mutant) {
		out = append(out, nameCell{"mutant/" + mu, cell(mu)})
	}
	return out
}

// bulkCells build, without running, small instances of the workloads
// that name their elements by index: dedup, dbindex, hash table and
// raytrace's cold locks.
func bulkCells() []nameCell {
	build := func(alg string, work func(e *Env) any) func(testing.TB) *sim.Machine {
		return func(tb testing.TB) *sim.Machine {
			cfg := sim.Small(2)
			cfg.Seed = 1
			cfg.MaxThreads = 10
			e, err := NewEnv(EnvOptions{Config: cfg, Alg: alg})
			if err != nil {
				tb.Fatal(err)
			}
			work(e)
			e.M.Run(0)
			return e.M
		}
	}
	var out []nameCell
	for _, alg := range []string{"blocking", "mcs", "flexguard"} {
		out = append(out,
			nameCell{"dedup/" + alg, build(alg, func(e *Env) any {
				return dedup.Build(e.M, dedup.Options{Threads: 2, Stripes: 12, Deadline: 1, NewLock: e.NewLock})
			})},
			nameCell{"dbindex/" + alg, build(alg, func(e *Env) any {
				return dbindex.Build(e.M, dbindex.Options{Threads: 2, Keys: 64, Fanout: 8, Deadline: 1, NewLock: e.NewLock})
			})},
			nameCell{"hashtable/" + alg, build(alg, func(e *Env) any {
				return hashtable.Build(e.M, hashtable.Options{Threads: 2, Buckets: 12, Deadline: 1, NewLock: e.NewLock})
			})},
			nameCell{"raytrace/" + alg, build(alg, func(e *Env) any {
				return raytrace.Build(e.M, raytrace.Options{Threads: 2, ColdLocks: 12, Deadline: 1, NewLock: e.NewLock})
			})},
		)
	}
	return out
}

// machineNames returns every word's and every lock's name in id order.
// No name in these cells is empty, so the first empty one ends each list.
func machineNames(m *sim.Machine) (words, locks []string) {
	for id := int32(0); m.WordName(id) != ""; id++ {
		words = append(words, m.WordName(id))
	}
	for id := int32(0); m.LockName(id) != ""; id++ {
		locks = append(locks, m.LockName(id))
	}
	return words, locks
}

// TestNames pins the text of every word and lock name in the name cells
// and the bulk builders, in allocation order, against
// testdata/names.golden, which first recorded the names as each naming
// call's caller spelled them out, before names were kept in parts. The
// text is what race verdicts, deadlock dumps and lock metrics print.
// -update rewrites the golden file (for a new cell; review the diff).
func TestNames(t *testing.T) {
	const path = "testdata/names.golden"
	cells := append(nameCells(), bulkCells()...)
	got := map[string][2]string{}
	var b strings.Builder
	for _, c := range cells {
		w, l := machineNames(c.run(t))
		got[c.label] = [2]string{strings.Join(w, " "), strings.Join(l, " ")}
		fmt.Fprintf(&b, "%s\n  words %s\n  locks %s\n", c.label, got[c.label][0], got[c.label][1])
	}
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 3*len(cells) {
		t.Fatalf("golden has %d lines, want 3 per cell for %d cells", len(lines), len(cells))
	}
	for i := 0; i < len(lines); i += 3 {
		label := lines[i]
		want := [2]string{strings.TrimPrefix(lines[i+1], "  words "), strings.TrimPrefix(lines[i+2], "  locks ")}
		if got[label][0] != want[0] {
			t.Errorf("%s: word names\n got %s\nwant %s", label, got[label][0], want[0])
		}
		if got[label][1] != want[1] {
			t.Errorf("%s: lock names\n got %s\nwant %s", label, got[label][1], want[1])
		}
	}
}

// TestDeadlockReportText pins the deadlock dump of a machine whose only
// thread waits on a futex that nobody wakes.
func TestDeadlockReportText(t *testing.T) {
	m := sim.New(sim.Small(1))
	w := m.NewWord("lonely.futex", 7)
	m.Spawn("lonely", func(p *sim.Proc) { p.FutexWait(w, 7) })
	m.Run(1_000_000)
	if !m.Deadlocked() {
		t.Fatal("a thread parked on a futex nobody wakes must deadlock the machine")
	}
	const want = "deadlock: event queue drained at t=1000000 with 1 thread(s) still blocked\n" +
		"  thread 0 (lonely) blocked on \"lonely.futex\" (value 7)\n"
	if got := m.DeadlockReport(); got != want {
		t.Fatalf("deadlock report\n got %q\nwant %q", got, want)
	}
}
