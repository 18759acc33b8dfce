package main

import (
	"io"
	"runtime"
	"testing"
)

func mallocs(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// sampleCells takes every step-th cell of a workload at the default seed.
func sampleCells(t *testing.T, name string, step int) (workload, []cell) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	all := w.cells(defaultSeed)
	var out []cell
	for i := 0; i < len(all); i += step {
		out = append(out, all[i])
	}
	return w, out
}

// The deterministic count lane must repeat exactly: these counts are what
// a CI gate can compare between commits without wall-clock noise.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"sweep", "campaign-checked"} {
		w, cells := sampleCells(t, name, 9)
		traced := w.base
		traced.Observe, traced.Window = true, true
		for _, c := range cells {
			var a, b outcome
			ma := mallocs(func() { a = runStaged(c, traced) })
			mb := mallocs(func() { b = runStaged(c, traced) })
			// Allocation counts repeat to within a few runtime-internal
			// allocations (goroutine, timer and GC bookkeeping), not exactly.
			if d := max(ma, mb) - min(ma, mb); d > max(64, ma/100) {
				t.Errorf("%s: allocations %d vs %d", c.Name, ma, mb)
			}
			if a.Fail != "" {
				t.Fatalf("%s: %s", c.Name, a.Fail)
			}
			if a.N != b.N || a.Ref != b.Ref {
				t.Errorf("%s: counts differ between runs:\n%+v %+v\n%+v %+v", c.Name, a.N, a.Ref, b.N, b.Ref)
			}
			if u := runStaged(c, w.base); u.Ref != a.Ref {
				t.Errorf("%s: observers not passive: %+v vs %+v", c.Name, u.Ref, a.Ref)
			}
		}
	}
}

// A cell whose inputs were perturbed must be counted as failed, both
// against the recorded default-seed table and against its own entry
// point, while the unperturbed cell passes both checks.
func TestPerturbedCellFails(t *testing.T) {
	w, cells := sampleCells(t, "sweep", 1000)
	good := cells[0]
	bad := good
	bad.Run.Seed++

	k := &checker{log: io.Discard}
	refs := entryPass(w.name, []cell{good}, defaultSeed, 1, k)
	k.verify([]cell{good}, runPass([]cell{good}, 1, w.base), refs)
	if k.failed != 0 || k.attempted != 2 {
		t.Fatalf("unperturbed cell: %d of %d failed", k.failed, k.attempted)
	}

	k = &checker{log: io.Discard}
	entryPass(w.name, []cell{bad}, defaultSeed, 1, k)
	if k.failed != 1 {
		t.Errorf("perturbed cell against the recorded table: %d failed, want 1", k.failed)
	}

	k = &checker{log: io.Discard}
	k.verify([]cell{bad}, runPass([]cell{bad}, 1, w.base), refs)
	if k.failed != 1 {
		t.Errorf("perturbed staged run against the entry point: %d failed, want 1", k.failed)
	}
}
