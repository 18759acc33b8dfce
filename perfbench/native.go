package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	flexguard "repro"
	"repro/internal/dist"
)

// The native-mutex workload: the shipped flexguard.Mutex driven by a
// closed loop of goroutines. Each operation is Lock, a short critical
// section on shared cache lines, Unlock, then fixed local work. A round
// starts a NativeMonitor, warms up, and runs timed phases alternating
// nproc and 4×nproc goroutines, so the monitor's spin↔block switch is
// exercised in every round.

const (
	csLines     = 4       // shared cache lines written in each critical section
	phaseOps    = 600_000 // Lock/Unlock pairs per timed phase
	warmOps     = 100_000 // untimed warm-up pairs per round
	sampleEvery = 64      // Lock latency is timed on 1 op in sampleEvery
	// localWork is the local-work iterations after each Unlock (~250 ns).
	// It keeps about one acquisition in ten contended; with much less,
	// the median acquisition flips between the uncontended and the
	// contended mode from round to round.
	localWork = 240
)

// phaseMults is the goroutine count of each timed phase of a round, as a
// multiple of nproc.
var phaseMults = []int{1, 4, 1, 4}

// sink keeps the local-work results observable so the loop stays.
var sink [8]atomic.Uint64

// sharedState is what the critical section writes: a counter and
// csLines padded lines. Lost updates show as a shortfall.
type sharedState struct {
	count uint64
	_     [56]byte
	lines [csLines]struct {
		v uint64
		_ [56]byte
	}
}

// nativeInput is the seed-generated part of the workload: the order the
// critical section walks the shared lines and each goroutine's local
// work seed. Neither changes how much work an operation does.
type nativeInput struct {
	order [csLines]int
	salt  uint64
}

func newNativeInput(seed uint64) nativeInput {
	rng := dist.NewRand(seed)
	in := nativeInput{salt: rng.Uint64()}
	for i := range in.order {
		in.order[i] = i
	}
	for i := len(in.order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		in.order[i], in.order[j] = in.order[j], in.order[i]
	}
	return in
}

// phase is one timed phase.
type phase struct {
	mult    int
	ops     int64
	wall    time.Duration
	lost    int64
	samples []float64 // sampled Lock latencies, µs
}

// runPhase runs ops Lock/Unlock pairs on g goroutines released together
// by a start barrier. every > 0 times Lock on one op in every; it
// returns when all goroutines have finished.
func runPhase(mu *flexguard.Mutex, in nativeInput, g, ops, every int) (phase, time.Time) {
	st := &sharedState{}
	per := make([][]float64, g)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		n := ops / g
		if i < ops%g {
			n++
		}
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			x := in.salt + uint64(i)
			var lat []float64
			if every > 0 {
				lat = make([]float64, 0, n/every+1)
			}
			<-gate
			for k := 0; k < n; k++ {
				if every > 0 && k%every == 0 {
					t := time.Now()
					mu.Lock()
					lat = append(lat, float64(time.Since(t).Nanoseconds())/1e3)
				} else {
					mu.Lock()
				}
				st.count++
				for _, l := range in.order {
					st.lines[l].v++
				}
				mu.Unlock()
				for j := 0; j < localWork; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			per[i] = lat
			sink[i%len(sink)].Store(x)
		}(i, n)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	p := phase{ops: int64(ops), wall: time.Since(start)}
	lost := uint64(ops) - st.count
	for _, l := range st.lines {
		lost = max(lost, uint64(ops)-l.v)
	}
	p.lost = int64(lost)
	for _, l := range per {
		p.samples = append(p.samples, l...)
	}
	return p, start
}

// round is one monitor lifetime: set-up, warm-up and the timed phases.
type round struct {
	setup    time.Duration // round start to the first timed operation
	phases   []phase
	warm     phase
	p50, p99 float64 // sampled Lock latency over the round's phases, µs
	samples  int
	mutex    flexguard.MutexSnapshot
	mon      flexguard.MonitorSnapshot
}

func (r round) ops() (n int64) {
	for _, p := range r.phases {
		n += p.ops
	}
	return n
}

func (r round) wall() (d time.Duration) {
	for _, p := range r.phases {
		d += p.wall
	}
	return d
}

func runRound(in nativeInput, every int) round {
	t0 := time.Now()
	procs := runtime.GOMAXPROCS(0)
	mon := flexguard.StartMonitor(flexguard.MonitorConfig{})
	defer mon.Stop()
	mu := flexguard.NewMutex(mon)
	var r round
	r.warm, _ = runPhase(mu, in, procs, warmOps, 0)
	var lat []float64
	for i, m := range phaseMults {
		p, start := runPhase(mu, in, m*procs, phaseOps, every)
		if i == 0 {
			r.setup = start.Sub(t0)
		}
		p.mult = m
		lat = append(lat, p.samples...)
		p.samples = nil
		r.phases = append(r.phases, p)
	}
	r.p50, r.p99, r.samples = quantile(lat, 0.50), quantile(lat, 0.99), len(lat)
	r.mutex, r.mon = mu.Snapshot(), mon.Snapshot()
	return r
}

// nativeRounds runs rounds until seconds have passed (at least
// minPasses), after one untimed round that lets the Go runtime reach its
// steady scheduling regime (the first half second runs near-serially).
// Every operation counts as attempted and every lost update as failed.
func nativeRounds(seed uint64, seconds float64, every func(i int) int, rss *rssSampler) ([]round, []float64, *checker) {
	in := newNativeInput(seed)
	k := &checker{}
	check := func(r round) {
		for _, p := range append([]phase{r.warm}, r.phases...) {
			k.attempted += p.ops
			k.failed += p.lost
		}
	}
	check(runRound(in, sampleEvery))
	var rounds []round
	var peaks []float64
	rss.take()
	start := time.Now()
	for len(rounds) < minPasses || time.Since(start).Seconds() < seconds {
		r := runRound(in, every(len(rounds)))
		peaks = append(peaks, rss.take())
		check(r)
		rounds = append(rounds, r)
	}
	return rounds, peaks, k
}

func runNative(seed uint64, seconds float64, log io.Writer) (result, error) {
	rss, err := startRSSSampler()
	if err != nil {
		return result{}, err
	}
	rounds, peaks, k := nativeRounds(seed, seconds, func(int) int { return sampleEvery }, rss)
	rss.close()
	var cps, ops, setup, p50, p99 []float64
	samples := 0
	for _, r := range rounds {
		secs := r.wall().Seconds()
		cps = append(cps, float64(len(r.phases))/secs)
		ops = append(ops, float64(r.ops())/secs)
		setup = append(setup, r.setup.Seconds())
		p50, p99 = append(p50, r.p50), append(p99, r.p99)
		samples += r.samples
	}
	fmt.Fprintf(log, "lock_ops_per_s by round: %.4g\n", ops)
	fmt.Fprintf(log, "native: rounds=%d phases/round=%d ops/phase=%d lock-latency samples=%d (1 in %d; quantiles per round, median over rounds) lost_updates=%d\n",
		len(rounds), len(phaseMults), phaseOps, samples, sampleEvery, k.failed)
	return result{
		Correct:   k.failed == 0,
		Attempted: k.attempted,
		Failed:    k.failed,
		Metrics: map[string]metric{
			"cells_per_s":    {median(cps), "cells/s"},
			"lock_ops_per_s": {median(ops), "ops/s"},
			"lock_p50_us":    {median(p50), "us"},
			"lock_p99_us":    {median(p99), "us"},
			"setup_s":        {median(setup), "s"},
			"peak_rss_mb":    {median(peaks), "MB"},
		},
	}, nil
}
