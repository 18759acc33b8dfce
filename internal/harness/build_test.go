package harness

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// buildShape is one of the figure sweep's lock-heavy cells: quarter-scale
// Intel, dedup with 16,384 stripes or a 131,072-key dbindex tree, under
// (13 threads) and over (39) subscription.
type buildShape struct {
	app     string
	alg     string
	threads int
	// allocs is the recorded allocation count of NewEnv plus Build, on
	// go1.24.0 linux/amd64 (the toolchain go.mod names). Part of it is
	// runtime-internal (each thread's iter.Pull coroutine, the maps of
	// sim.New and monitor.Attach), so another Go release may move it.
	allocs int64
}

var buildShapes = []buildShape{
	{"dedup", "blocking", 13, 33389},
	{"dedup", "blocking", 39, 34054},
	{"dedup", "mcs", 13, 33375},
	{"dedup", "mcs", 39, 34020},
	{"dedup", "flexguard", 13, 33450},
	{"dedup", "flexguard", 39, 34110},
	{"dbindex", "blocking", 13, 17987},
	{"dbindex", "blocking", 39, 18626},
	{"dbindex", "mcs", 13, 17987},
	{"dbindex", "mcs", 39, 18626},
	{"dbindex", "flexguard", 13, 18015},
	{"dbindex", "flexguard", 39, 18654},
}

func (s buildShape) String() string { return fmt.Sprintf("%s/%s/t%d", s.app, s.alg, s.threads) }

// build runs the set-up stages of the shape's sweep cell, NewEnv and the
// workload's Build, exactly as runClosed does, and returns the machine.
func (s buildShape) build(tb testing.TB) *sim.Machine {
	cfg := withHeadroom(ScaleConfig(sim.Intel(), 0.25), s.threads+8)
	cfg.Seed = 1
	e, err := NewEnv(EnvOptions{Config: cfg, Alg: s.alg})
	if err != nil {
		tb.Fatal(err)
	}
	work := dedupWork
	if s.app == "dbindex" {
		work = dbindexWork
	}
	work(e, s.threads, 1_000_000)
	return e.M
}

// TestBuildAllocs pins the allocations of the sweep's dedup and dbindex
// set-up: counts repeat within 1% or 64 (perfbench's TestCountsRepeat),
// so a bound that tight catches a per-lock or per-word allocation
// creeping back into a builder, a lock constructor or the word arena.
func TestBuildAllocs(t *testing.T) {
	if got := unsafe.Sizeof(sim.Word{}); got != 24 {
		t.Errorf("sim.Word is %d bytes, want 24", got)
	}
	for _, s := range buildShapes {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := s.build(t)
		runtime.ReadMemStats(&after)
		m.Run(0) // stop the never-dispatched thread coroutines
		got := int64(after.Mallocs - before.Mallocs)
		slack := max(s.allocs/100, 64)
		t.Logf("%v: %d allocs, %.1f MB", s, got, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		if got < s.allocs-slack || got > s.allocs+slack {
			t.Errorf("%v: NewEnv+Build allocated %d times, want %d ± %d", s, got, s.allocs, slack)
		}
	}
}

// BenchmarkBuild times the set-up stages of the sweep's lock-heavy cells
// (see buildShape); run with -benchmem for bytes and allocations.
func BenchmarkBuild(b *testing.B) {
	for _, s := range buildShapes {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := s.build(b)
				b.StopTimer()
				m.Run(0)
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/cell")
		})
	}
}
