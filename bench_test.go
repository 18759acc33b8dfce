package flexguard

// Benchmark harness: one testing.B benchmark per paper table/figure (see
// DESIGN.md's experiment index). Each benchmark runs the corresponding
// experiment at a reduced scale and reports paper-relevant custom metrics
// (virtual ops/s, mean CS latency in µs, fairness) alongside ns/op, so
// `go test -bench=. -benchmem` regenerates the full set of results.
// cmd/flexbench runs the same experiments at arbitrary scale.

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads/hackbench"
	"repro/internal/workloads/kvstore"
)

// benchCfg returns the scaled-down Intel profile used by the benchmarks.
func benchCfg(b *testing.B) sim.Config {
	b.Helper()
	cfg, err := harness.MachineConfig("intel")
	if err != nil {
		b.Fatal(err)
	}
	return harness.ScaleConfig(cfg, 0.125) // 13 contexts
}

const benchDuration = sim.Time(8_000_000)

// benchAlgs is the algorithm subset exercised per-benchmark (the full
// ten-algorithm sweeps live in cmd/flexbench).
var benchAlgs = []string{"blocking", "mcs", "flexguard"}

// reportResult publishes a run's metrics on the benchmark.
func reportResult(b *testing.B, prefix string, r harness.Result) {
	b.Helper()
	b.ReportMetric(r.OpsPerSec, prefix+"_vops/s")
	b.ReportMetric(r.MeanLatUS, prefix+"_cs_us")
	b.ReportMetric(r.Fairness, prefix+"_fairness")
}

// runLockSweep benchmarks one workload runner across the algorithms at
// the given subscription ratio.
func runLockSweep(b *testing.B, ratio float64, runner func(harness.RunCfg) (harness.Result, error)) {
	cfg := benchCfg(b)
	threads := int(float64(cfg.NumCPUs) * ratio)
	if threads < 1 {
		threads = 1
	}
	for _, alg := range benchAlgs {
		alg := alg
		b.Run(alg, func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				r, err := runner(harness.RunCfg{
					Config: cfg, Alg: alg, Threads: threads,
					Duration: benchDuration, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportResult(b, alg, last)
		})
	}
}

// BenchmarkFig1SharedMemIntel / BenchmarkFig2: the shared-memory-access
// microbenchmark (Figures 1 and 2a–d) at full subscription.
func BenchmarkFig1SharedMemIntel(b *testing.B) {
	runLockSweep(b, 1.0, func(c harness.RunCfg) (harness.Result, error) {
		return harness.RunSharedMem(c, 100)
	})
}

// BenchmarkFig2SharedMemOversubscribed: the same microbenchmark at 2×
// subscription — the collapse region of Figures 1/2.
func BenchmarkFig2SharedMemOversubscribed(b *testing.B) {
	runLockSweep(b, 2.0, func(c harness.RunCfg) (harness.Result, error) {
		return harness.RunSharedMem(c, 100)
	})
}

// BenchmarkFig3HashTable: Figures 3a–d.
func BenchmarkFig3HashTable(b *testing.B) {
	runLockSweep(b, 1.5, harness.RunHashTable)
}

// BenchmarkFig3DBIndex: Figures 3e–h.
func BenchmarkFig3DBIndex(b *testing.B) {
	runLockSweep(b, 1.5, harness.RunDBIndex)
}

// BenchmarkFig3Dedup: Figures 3i–l.
func BenchmarkFig3Dedup(b *testing.B) {
	runLockSweep(b, 1.5, harness.RunDedup)
}

// BenchmarkFig3Raytrace: Figures 3m–p.
func BenchmarkFig3Raytrace(b *testing.B) {
	runLockSweep(b, 1.5, harness.RunRaytrace)
}

// BenchmarkFig3Streamcluster: Figures 3q–t.
func BenchmarkFig3Streamcluster(b *testing.B) {
	runLockSweep(b, 1.5, harness.RunStreamcluster)
}

// BenchmarkFig4ReadRandom: Figures 4a–d (LevelDB readrandom).
func BenchmarkFig4ReadRandom(b *testing.B) {
	runLockSweep(b, 1.5, func(c harness.RunCfg) (harness.Result, error) {
		return harness.RunKV(c, kvstore.ReadRandom)
	})
}

// BenchmarkFig4FillRandom: Figures 4e–h (LevelDB fillrandom).
func BenchmarkFig4FillRandom(b *testing.B) {
	runLockSweep(b, 1.5, func(c harness.RunCfg) (harness.Result, error) {
		return harness.RunKV(c, kvstore.FillRandom)
	})
}

// BenchmarkFig5aRunnable: Figure 5a — the runnable-thread timeline at
// 1.35× subscription; reports the time-weighted mean runnable count.
func BenchmarkFig5aRunnable(b *testing.B) {
	cfg := benchCfg(b)
	threads := cfg.NumCPUs * 135 / 100
	for _, alg := range benchAlgs {
		alg := alg
		b.Run(alg, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				e, _, err := harness.RunSharedMemEnv(harness.RunCfg{
					Config: cfg, Alg: alg, Threads: threads,
					Duration: benchDuration, Seed: uint64(i + 1), RecordRunnable: true,
				}, 100)
				if err != nil {
					b.Fatal(err)
				}
				mean = e.M.RunnableTimeline().TimeWeightedMean(benchDuration/10, benchDuration)
			}
			b.ReportMetric(mean, "runnable_mean")
		})
	}
}

// BenchmarkFig5bFairness: Figure 5b — the Dice fairness factor at 2×
// subscription.
func BenchmarkFig5bFairness(b *testing.B) {
	runLockSweep(b, 2.0, func(c harness.RunCfg) (harness.Result, error) {
		return harness.RunSharedMem(c, 1_000)
	})
}

// BenchmarkFig5cSpin: Figure 5c — spin-loop iterations per algorithm.
func BenchmarkFig5cSpin(b *testing.B) {
	cfg := benchCfg(b)
	for _, alg := range []string{"blocking", "posix", "mcs", "flexguard"} {
		alg := alg
		b.Run(alg, func(b *testing.B) {
			var spins int64
			for i := 0; i < b.N; i++ {
				r, err := harness.RunSharedMem(harness.RunCfg{
					Config: cfg, Alg: alg, Threads: cfg.NumCPUs * 2,
					Duration: benchDuration, Seed: uint64(i + 1),
				}, 100)
				if err != nil {
					b.Fatal(err)
				}
				spins = r.SpinIters
			}
			b.ReportMetric(float64(spins), "spin_iters")
		})
	}
}

// BenchmarkOverheadHackbench: §5.4 — Preemption Monitor overhead.
func BenchmarkOverheadHackbench(b *testing.B) {
	cfg := benchCfg(b)
	var off, on sim.Time
	for i := 0; i < b.N; i++ {
		var err error
		off, on, err = harness.RunHackbench(cfg, uint64(i+7), hackbench.Options{
			Groups: 3, Pairs: 4, Messages: 80,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(off), "ticks_monitor_off")
	b.ReportMetric(float64(on), "ticks_monitor_on")
	b.ReportMetric(float64(on-off)/float64(off)*100, "overhead_%")
}

// BenchmarkAblationPerLockCounter: §3.2.2 — system-wide vs per-lock
// num_preempted_cs.
func BenchmarkAblationPerLockCounter(b *testing.B) {
	cfg := benchCfg(b)
	for _, c := range []struct{ name, alg string }{
		{"system-wide", "flexguard"}, {"per-lock", "flexguard/per-lock"},
	} {
		b.Run(c.name, func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				r, err := harness.RunHashTable(harness.RunCfg{
					Config: cfg, Alg: c.alg, Threads: cfg.NumCPUs * 2,
					Duration: benchDuration, Seed: uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.OpsPerSec, "vops/s")
		})
	}
}

// BenchmarkAblationMCSExit: §3.2.1 — the reverted blocking-aware mcs_exit.
func BenchmarkAblationMCSExit(b *testing.B) {
	cfg := benchCfg(b)
	for _, c := range []struct{ name, alg string }{
		{"spin-exit", "flexguard"}, {"blocking-exit", "flexguard/blocking-mcs-exit"},
	} {
		b.Run(c.name, func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				r, err := harness.RunSharedMem(harness.RunCfg{
					Config: cfg, Alg: c.alg, Threads: cfg.NumCPUs * 2,
					Duration: benchDuration, Seed: uint64(i + 1),
				}, 100)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.MeanLatUS, "cs_us")
		})
	}
}

// BenchmarkNativeMutex: the native Go mutex vs sync-style usage, healthy
// and (forced) oversubscribed modes.
func BenchmarkNativeMutex(b *testing.B) {
	for _, over := range []bool{false, true} {
		name := "healthy"
		if over {
			name = "oversubscribed"
		}
		over := over
		b.Run(name, func(b *testing.B) {
			mon := StartMonitor(MonitorConfig{Interval: 1 << 62})
			defer mon.Stop()
			mon.force(over)
			m := NewMutex(mon)
			counter := 0
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					m.Lock()
					counter++
					m.Unlock()
				}
			})
			if counter != b.N {
				b.Fatalf("lost updates: %d vs %d", counter, b.N)
			}
		})
	}
}

// BenchmarkSimulatorEventRate measures raw simulator throughput
// (events/sec of wall time) — the substrate cost of every experiment.
func BenchmarkSimulatorEventRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := NewSimulation(SimConfig{CPUs: 8, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		l := s.NewLock("L")
		w := s.M.NewWord("ctr", 0)
		for k := 0; k < 16; k++ {
			s.Spawn("w", func(p *Proc) {
				for p.Now() < 2_000_000 {
					l.Lock(p)
					v := p.Load(w)
					p.Store(w, v+1)
					l.Unlock(p)
					p.Compute(100)
				}
			})
		}
		s.Run(3_000_000)
	}
}
