// Package harness wires machines, lock algorithms, the Preemption Monitor
// and the workloads into the paper's experiments (§5): it owns the lock
// catalog every figure swaps locks through (the role LiTL plays in the
// paper), the thread-count sweeps, the concurrent busy-waiting
// oversubscription mode, and the table printers that regenerate each
// figure's rows.
package harness

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Env bundles one machine with everything needed to hand locks to a
// workload.
type Env struct {
	M      *sim.Machine
	Shared *locks.Shared
	Mon    *monitor.Monitor // nil unless the lock needs the monitor
	RT     *core.Runtime
	Obs    *obs.LockObserver   // nil unless EnvOptions.Observe was set
	Tr     *sim.Tracer         // nil unless RunCfg.Trace was set
	Race   *check.RaceAuditor  // nil unless RunCfg.Races was set
	TS     *timeseries.Sampler // nil unless RunCfg.Window was set
	row    LockRow
	nLocks int
	maxed  bool
	// queueDepth is the open-loop engine's request-queue gauge, set by
	// its workload so the flight recorder can sample it.
	queueDepth func() int64
}

// EnvOptions configures NewEnv.
type EnvOptions struct {
	Config sim.Config
	Alg    string // any catalog lock
	// Observe attaches an obs.LockObserver collecting per-lock metrics
	// (hold times, handover latency, spin/block transitions). Off by
	// default: the lock-event stream then costs two nil checks per event.
	Observe bool
}

// NewEnv builds a machine for the chosen lock: it resolves the lock's
// catalog row, applies the cost-table adjustments the row needs, then
// attaches the observer and, if needed, the monitor and runtime.
func NewEnv(o EnvOptions) (*Env, error) {
	row, ok := find(o.Alg)
	if !ok {
		return nil, fmt.Errorf("harness: unknown algorithm %q", o.Alg)
	}
	cfg := o.Config
	if row.Needs&NeedSliceExt != 0 {
		cfg.Costs.SliceExt = sliceExtGrant
	}
	if row.Needs&NeedMonitor != 0 {
		cfg.Costs.HookCost = monitorHookCost
	}
	m := sim.New(cfg)
	e := &Env{M: m, Shared: locks.NewShared(m), row: row}
	if o.Observe {
		e.Obs = obs.Observe(m)
	}
	if row.Needs&NeedMonitor != 0 {
		var opts []monitor.Option
		if row.Needs&NeedPerLock != 0 {
			opts = append(opts, monitor.PerLockCounters())
		}
		e.Mon = monitor.Attach(m, opts...)
		e.RT = core.NewRuntime(m, e.Mon)
	}
	return e, nil
}

// NewLock creates the next lock instance. For locks with a MaxLocks cap
// (u-SCL), exceeding the cap marks the env "crashed", mirroring the
// crashes the paper reports; the caller checks Crashed after building.
func (e *Env) NewLock(name string) locks.Lock {
	e.nLocks++
	if e.row.MaxLocks > 0 && e.nLocks > e.row.MaxLocks {
		e.maxed = true
	}
	return e.row.New(e, name)
}

// Crashed reports whether the algorithm exceeded its lock-count capacity
// (the paper's u-SCL crashes on PiBench and Dedup).
func (e *Env) Crashed() bool { return e.maxed }

// SpawnSpinners adds n background busy-waiting threads that never touch
// any lock — the "concurrent busy-waiting workload" of Figures 3 and 4.
func (e *Env) SpawnSpinners(n int, deadline sim.Time) {
	for i := 0; i < n; i++ {
		e.M.Spawn("spinner", func(p *sim.Proc) {
			for p.Now() < deadline {
				p.Compute(10_000)
			}
		})
	}
}

// Result carries the metrics of one run.
type Result struct {
	Alg      string
	Threads  int
	Spinners int
	Crashed  bool
	// Deadlocked reports the machine drained its event queue with threads
	// still parked on a futex — a hang that previously looked like a
	// silently idle (and suspiciously fast) run. DeadlockDump holds the
	// owner/waiter report.
	Deadlocked   bool
	DeadlockDump string
	Ops          int64
	Duration     sim.Time
	OpsPerSec    float64 // virtual operations per virtual second
	MeanLatUS    float64 // mean recorded latency, µs
	P99LatUS     float64 // ~99th-percentile latency from the reservoirs, µs
	Fairness     float64 // Dice fairness factor over worker ops
	SpinIters    int64
	Preempt      int64 // total involuntary context switches
	CSPreempt    int64 // monitor-detected critical-section preemptions

	// TraceDigest/TraceEvents fingerprint the machine's full event
	// stream (RunCfg.Trace): equal digests mean behaviourally identical
	// runs, the property the determinism suite asserts across -parallel
	// worker counts and GOMAXPROCS settings.
	TraceDigest uint64
	TraceEvents int64

	// Policy-transition counts from the Preemption Monitor (flexguard
	// variants; zero otherwise).
	PolicySpinToBlock int64
	PolicyBlockToSpin int64

	// Race-auditor verdicts (RunCfg.Races): stored races plus the total
	// beyond the storage cap.
	Races     []check.Race
	RaceTotal int64

	// Lock-level telemetry, filled only when the env was built with
	// Observe. SpinToBlock/BlockToSpin count waiters that changed wait
	// mode mid-acquisition, across all locks; PerLock is each lock's
	// counters and hold and handover histograms (ticks).
	Acquires    int64
	Handovers   int64
	SpinStarts  int64
	Blocks      int64
	Wakes       int64
	SpinToBlock int64
	BlockToSpin int64
	PerLock     []obs.LockStats

	// Series is the flight-recorder recording (RunCfg.Window > 0 only).
	// Fully deterministic, so the determinism suite compares it by
	// DeepEqual along with every other field.
	Series *timeseries.Series
}

// WriteLockMetrics writes the per-lock telemetry table (requires a run
// with EnvOptions.Observe / RunCfg.Observe): the 20 busiest locks by
// acquisitions, ties by name, then a totals line. Hold and handover
// times are in µs; the means are exact, the p99s log2-bucket estimates.
func (r *Result) WriteLockMetrics(w io.Writer) {
	fmt.Fprintf(w, "%-24s %9s %9s %8s %8s %10s %10s %10s %10s\n",
		"lock", "acquires", "handover", "s->b", "b->s",
		"hold_mean", "hold_p99", "hndov_mean", "hndov_p99")
	ls := slices.Clone(r.PerLock)
	slices.SortStableFunc(ls, func(a, b obs.LockStats) int {
		return cmp.Or(cmp.Compare(b.Acquires, a.Acquires), strings.Compare(a.Name, b.Name))
	})
	const maxLines, us = 20, 1 / sim.TicksPerMicrosecond
	for i, l := range ls {
		if i == maxLines {
			fmt.Fprintf(w, "... %d more locks\n", len(ls)-maxLines)
			break
		}
		fmt.Fprintf(w, "%-24s %9d %9d %8d %8d %10.2f %10.2f %10.2f %10.2f\n",
			l.Name, l.Acquires, l.Handovers, l.SpinToBlock, l.BlockToSpin,
			l.Hold.Mean()*us, float64(l.Hold.Quantile(0.99))*us,
			l.HandoverLat.Mean()*us, float64(l.HandoverLat.Quantile(0.99))*us)
	}
	fmt.Fprintf(w, "total: %d acquires, %d spin-starts, %d blocks, %d wakes; waiter s->b=%d b->s=%d; policy s->b=%d b->s=%d\n",
		r.Acquires, r.SpinStarts, r.Blocks, r.Wakes,
		r.SpinToBlock, r.BlockToSpin, r.PolicySpinToBlock, r.PolicyBlockToSpin)
}

// Collect gathers metrics for the worker threads spawned before the call
// to SpawnSpinners (workers are identified by index < workers).
func (e *Env) Collect(workers int, duration sim.Time) Result {
	r := Result{Alg: e.row.Name, Threads: workers, Duration: duration, Crashed: e.Crashed()}
	threads := e.M.Threads()
	threads = threads[:min(workers, len(threads))]
	var latSum, latCount int64
	ops := make([]int64, 0, workers)
	n := 0
	for _, th := range threads {
		n += len(th.LatencySamples())
	}
	// Every worker's reservoir, widened into one buffer that the p99's
	// selection then reorders in place (tick counts convert exactly).
	samples := make([]float64, 0, n)
	for _, th := range threads {
		r.Ops += th.Ops
		ops = append(ops, th.Ops)
		latSum += th.LatSum
		latCount += th.LatCount
		r.SpinIters += th.SpinIters
		for _, s := range th.LatencySamples() {
			samples = append(samples, float64(s))
		}
	}
	if len(samples) > 0 {
		r.P99LatUS = stats.PercentileInPlace(samples, 0.99) / sim.TicksPerMicrosecond
	}
	r.Preempt = e.M.TotalPreemptions
	if e.Mon != nil {
		r.CSPreempt = e.Mon.InCSPreemptions
		r.PolicySpinToBlock = e.Mon.SpinToBlockSwitches
		r.PolicyBlockToSpin = e.Mon.BlockToSpinSwitches
	}
	if e.Obs != nil {
		t := e.Obs.Totals()
		r.Acquires = t.Acquires
		r.Handovers = t.Handovers
		r.SpinStarts = t.SpinStarts
		r.Blocks = t.Blocks
		r.Wakes = t.Wakes
		r.SpinToBlock = t.SpinToBlock
		r.BlockToSpin = t.BlockToSpin
		r.PerLock = e.Obs.Stats()
	}
	if duration > 0 {
		r.OpsPerSec = float64(r.Ops) / (float64(duration) / (sim.TicksPerMicrosecond * 1e6))
	}
	if latCount > 0 {
		r.MeanLatUS = float64(latSum) / float64(latCount) / sim.TicksPerMicrosecond
	}
	r.Fairness = stats.FairnessFactor(ops)
	return r
}

// ScaleConfig shrinks a machine profile by factor (0 < f <= 1), keeping
// the cost table: a 0.25-scaled Intel profile has 26 hardware contexts.
// Thread counts in experiments scale the same way so subscription ratios
// are preserved.
func ScaleConfig(cfg sim.Config, f float64) sim.Config {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("harness: scale %g out of (0,1]", f))
	}
	n := int(float64(cfg.NumCPUs) * f)
	if n < 2 {
		n = 2
	}
	cfg.NumCPUs = n
	return cfg
}

// MachineConfig returns the named profile ("intel", "amd", "small").
func MachineConfig(name string) (sim.Config, error) {
	switch name {
	case "intel":
		return sim.Intel(), nil
	case "amd":
		return sim.AMD(), nil
	case "small":
		return sim.Small(8), nil
	default:
		return sim.Config{}, fmt.Errorf("harness: unknown machine %q", name)
	}
}
