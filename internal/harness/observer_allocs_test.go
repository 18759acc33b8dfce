package harness

import (
	"runtime"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/sim"
	"repro/internal/workloads/sharedmem"
)

// memCounter counts the Word-access stream on its way to the auditor.
type memCounter struct {
	next sim.MemObserver
	n    int64
}

func (c *memCounter) MemEvent(ev *sim.MemEvent) {
	c.n++
	c.next.MemEvent(ev)
}

// TestCheckedCellAllocs is TestSteadySteppingAllocs for the correctness
// observers: one crash-plan campaign cell runs with the invariant
// checker, race auditor, lock stats, flight recorder, tracer and crash
// injector attached, and the run must allocate far less than once per
// event. flexlint proves the observer callbacks allocation-free
// statically; this catches what it cannot see, such as an event
// escaping to the heap through an interface call.
func TestCheckedCellAllocs(t *testing.T) {
	const (
		seed    = 7
		threads = 8
		horizon = sim.Time(3_000_000)
	)
	plan, ok := fault.PlanByName("crash-storm")
	if !ok {
		t.Fatal("crash-storm plan missing")
	}
	cfg := sim.Small(4)
	cfg.Seed = seed
	cfg.MaxThreads = threads + 8
	e, err := NewEnv(EnvOptions{Config: cfg, Alg: "flexguard", Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ck := check.Attach(e.M, check.Options{Registry: reg, EmitEvents: true, StallBound: horizon / 2})
	ra := check.AttachRace(e.M, check.RaceOptions{Registry: reg, EmitEvents: true, StallBound: horizon / 2})
	mem := &memCounter{next: ra}
	e.M.SetMemObserver(mem)
	inj := fault.Apply(e.M, e.Mon, plan, seed)
	tr := e.M.AttachTracer(256)
	sharedmem.Build(e.M, sharedmem.Options{Threads: threads, Deadline: horizon, NewLock: e.NewLock})
	grace := 5 * horizon
	ts := timeseries.Attach(e.M, timeseries.Options{Window: horizon / 16, ExpectWindows: int(grace/(horizon/16)) + 1})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	q := e.M.Run(grace)
	runtime.ReadMemStats(&after)
	allocs := int64(after.Mallocs - before.Mallocs)
	ck.Finish(q)
	ra.Finish(q)
	ts.Finish(q)

	events := tr.Seen + mem.n
	if inj.Crashes == 0 || events < 20_000 {
		t.Fatalf("the cell must exercise crashes over a long stream: %d crashes, %d events", inj.Crashes, events)
	}
	// Table growth on first sight of a thread, lock or word, runqueue
	// and futex-queue growth, and the kills' bookkeeping stay in the low
	// hundreds; an allocation per lock or memory event would be tens of
	// thousands.
	if allocs*50 > events {
		t.Fatalf("checked run allocated %d times over %d events (%d crashes); want under one per 50 events",
			allocs, events, inj.Crashes)
	}
	t.Logf("%d allocations over %d events (%d lock/sched, %d mem), %d crashes", allocs, events, tr.Seen, mem.n, inj.Crashes)
}
