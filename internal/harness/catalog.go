package harness

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/locks"
	"repro/internal/sim"
)

// Group places a lock in the experiments.
type Group uint8

const (
	Substrate Group = iota // fuzz and crash campaigns only, in no figure
	Figures                // the §5.1 algorithms, in the paper's order
	Robust                 // robust-futex wrappers, crash campaign only
	Ablation               // the §3.2 FlexGuard variants
	Mutant                 // fault.Mutants(): broken locks for the checker's self-test
)

// Needs is what a lock's machine must provide beyond the plain model.
type Needs uint8

const (
	NeedMonitor  Needs = 1 << iota // the Preemption Monitor, FlexGuard runtime and hook cost
	NeedPerLock                    // the monitor keeps per-lock counters (§3.2.2)
	NeedSliceExt                   // the scheduler grants slice extensions (§2.4)
)

// sliceExtGrant is the one-shot timeslice extension granted by the
// patched scheduler (§2.4) for the *-ext variants, ≈9 µs.
const sliceExtGrant = sim.Time(20_000)

// monitorHookCost models the eBPF handler's per-context-switch cost; the
// §5.4 experiment measures its end-to-end impact.
const monitorHookCost = sim.Time(60)

// LockRow is one lock the harness can build.
type LockRow struct {
	Name  string
	Group Group
	Needs Needs
	// MaxLocks caps the locks one machine can hold (0 = no cap): u-SCL's
	// heavyweight per-lock state makes it crash on the paper's
	// lock-heavy benchmarks, the "missing lines" in Figures 3e–l.
	MaxLocks int
	// Recovers marks the locks built to survive a holder crash: a crash
	// while holding must end in recovery, not an orphaned lock.
	Recovers bool
	New      func(e *Env, name string) locks.Lock
}

// catalog is every lock the harness can build, one row each, grouped in
// order: substrate, figures (the paper's order), robust, ablation,
// mutants.
var catalog = append([]LockRow{
	{Name: "tas", Group: Substrate, New: onMachine(locks.NewTAS)},
	{Name: "tatas", Group: Substrate, New: onMachine(locks.NewTATAS)},
	{Name: "ticket", Group: Substrate, New: onMachine(locks.NewTicket)},
	{Name: "clh", Group: Substrate, New: onMachine(locks.NewCLH)},
	{Name: "backoff", Group: Substrate, New: onMachine(locks.NewBackoff)},

	{Name: "blocking", Group: Figures, New: onMachine(locks.NewBlocking)},
	{Name: "posix", Group: Figures, New: onMachine(locks.NewPosix)},
	{Name: "mcs", Group: Figures, New: onMachine(locks.NewMCS)},
	{Name: "mcstp", Group: Figures, New: onShared(locks.NewMCSTP)},
	{Name: "shuffle", Group: Figures, New: onShared(locks.NewShuffle)},
	{Name: "malthusian", Group: Figures, New: onMachine(locks.NewMalthusian)},
	{Name: "uscl", Group: Figures, MaxLocks: 4096, New: onMachine(locks.NewUSCL)},
	{Name: "flexguard", Group: Figures, Needs: NeedMonitor, Recovers: true, New: flexGuard()},
	{Name: "spin-ext", Group: Figures, Needs: NeedSliceExt, New: onMachine(locks.NewSpinExt)},
	{Name: "flexguard-ext", Group: Figures, Needs: NeedMonitor | NeedSliceExt, Recovers: true,
		New: flexGuard(core.WithTimesliceExtension())},

	{Name: "robust/blocking", Group: Robust, Recovers: true, New: func(e *Env, n string) locks.Lock {
		return locks.NewRobustBlocking(e.M, e.Shared.Robust(), n)
	}},
	{Name: "robust/mcs", Group: Robust, New: func(e *Env, n string) locks.Lock {
		return locks.NewRobustMCS(e.M, e.Shared.Robust(), n)
	}},

	{Name: "flexguard/per-lock", Group: Ablation, Needs: NeedMonitor | NeedPerLock, New: flexGuard()},
	{Name: "flexguard/blocking-mcs-exit", Group: Ablation, Needs: NeedMonitor,
		New: flexGuard(core.WithBlockingMCSExit())},
}, mutantRows()...)

// onMachine adapts a constructor that needs only the machine.
func onMachine[L locks.Lock](newLock func(*sim.Machine, string) L) func(*Env, string) locks.Lock {
	return func(e *Env, n string) locks.Lock { return newLock(e.M, n) }
}

// onShared adapts a constructor that takes the machine's shared lock
// state (Shuffle's per-thread nodes, MCS-TP's abandon counter).
func onShared[L locks.Lock](newLock func(*locks.Shared, string) L) func(*Env, string) locks.Lock {
	return func(e *Env, n string) locks.Lock { return newLock(e.Shared, n) }
}

// flexGuard builds FlexGuard locks on the env's runtime.
func flexGuard(opts ...core.LockOption) func(*Env, string) locks.Lock {
	return func(e *Env, n string) locks.Lock { return e.RT.NewLock(n, opts...) }
}

// mutantRows gives each fault mutant a row: one that reads the NPCS word
// gets FlexGuard's machine, any other the plain one.
func mutantRows() []LockRow {
	var rows []LockRow
	for _, mu := range fault.Mutants() {
		row := LockRow{Name: mu.Name, Group: Mutant, New: func(e *Env, n string) locks.Lock {
			return mu.New(e.M, e.Mon, n)
		}}
		if mu.NeedsMonitor {
			row.Needs = NeedMonitor
		}
		rows = append(rows, row)
	}
	return rows
}

// Names lists the catalog's locks in the given groups, in catalog order.
func Names(groups ...Group) []string {
	var out []string
	for _, r := range catalog {
		if slices.Contains(groups, r.Group) {
			out = append(out, r.Name)
		}
	}
	return out
}

// The name lists the experiments and campaigns sweep.
var (
	Algorithms       = Names(Figures)
	AllAlgorithms    = Names(Substrate, Figures)
	RobustAlgorithms = Names(Robust)
)

// CrashAlgorithms is the crash campaign's set, and every name a user may
// type.
func CrashAlgorithms() []string { return Names(Substrate, Figures, Robust) }

// Lookup returns the row of a lock a command line, a replay spec or the
// public facade names: a substrate, figure or robust lock. Ablation and
// mutant rows are reachable only from code.
func Lookup(name string) (LockRow, error) {
	if r, ok := find(name); ok && r.Group < Ablation {
		return r, nil
	}
	return LockRow{}, fmt.Errorf("harness: unknown algorithm %q (have %s)",
		name, strings.Join(CrashAlgorithms(), ", "))
}

// find returns the row of any catalog lock.
func find(name string) (LockRow, bool) {
	for _, r := range catalog {
		if r.Name == name {
			return r, true
		}
	}
	return LockRow{}, false
}
