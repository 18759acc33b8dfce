// Package flexguard is a Go reproduction of "FlexGuard: Fast Mutual
// Exclusion Independent of Subscription" (SOSP 2025).
//
// The faithful reproduction lives on a deterministic multicore simulator
// (internal/sim) where thread preemption, the sched_switch tracepoint, the
// futex and the cache hierarchy are first-class: internal/monitor is the
// Preemption Monitor (the paper's eBPF program), internal/core is the
// FlexGuard lock algorithm, internal/locks holds the ten baseline locks
// the paper compares against, and internal/harness + cmd/flexbench
// regenerate every figure. This package is the public entry point:
//
//   - NewSimulation builds a simulated machine with the Preemption Monitor
//     attached and hands out FlexGuard locks and baseline locks for
//     experiments (see examples/quickstart).
//   - Mutex is a *native* Go lock implementing the FlexGuard policy for
//     real goroutine workloads: it busy-waits while the runtime looks
//     healthy and switches every waiter to blocking when the monitor
//     detects scheduler pressure. Go hides kernel-thread preemption, so
//     the native monitor is necessarily a sampling approximation — see
//     NativeMonitor — while the simulator carries the exact algorithm.
package flexguard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// Re-exported simulator types, so example programs and downstream users
// need only this package for common tasks.
type (
	// Machine is the simulated multicore machine.
	Machine = sim.Machine
	// Proc is a simulated thread's execution handle.
	Proc = sim.Proc
	// Time is virtual time in ticks (~1 cycle at 2.2 GHz).
	Time = sim.Time
	// Lock is the mutual-exclusion interface all algorithms implement.
	Lock = locks.Lock
	// SimLock is a FlexGuard lock instance on the simulator.
	SimLock = core.FlexGuard
	// Monitor is the Preemption Monitor attached to a machine.
	Monitor = monitor.Monitor
)

// Simulation bundles a machine, its Preemption Monitor and the FlexGuard
// runtime.
type Simulation struct {
	M   *sim.Machine
	Mon *monitor.Monitor
	RT  *core.Runtime

	shared *locks.Shared
}

// SimConfig configures NewSimulation.
type SimConfig struct {
	// CPUs is the number of hardware contexts (default 8).
	CPUs int
	// Seed makes the run reproducible (default 1).
	Seed uint64
	// Profile selects a full machine profile by name ("intel", "amd");
	// when set, CPUs is ignored.
	Profile string
	// RecordRunnable enables the runnable-thread timeline.
	RecordRunnable bool
}

// NewSimulation builds a simulated machine with the FlexGuard Preemption
// Monitor attached, exactly as the figures build every flexguard cell
// (the monitor's per-switch hook cost included).
func NewSimulation(c SimConfig) (*Simulation, error) {
	var cfg sim.Config
	if c.Profile != "" {
		var err error
		cfg, err = harness.MachineConfig(c.Profile)
		if err != nil {
			return nil, err
		}
	} else {
		n := c.CPUs
		if n == 0 {
			n = 8
		}
		cfg = sim.Intel()
		cfg.NumCPUs = n
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	} else {
		cfg.Seed = 1
	}
	cfg.RecordRunnable = c.RecordRunnable
	env, err := harness.NewEnv(harness.EnvOptions{Config: cfg, Alg: "flexguard"})
	if err != nil {
		return nil, err
	}
	return &Simulation{M: env.M, Mon: env.Mon, RT: env.RT, shared: env.Shared}, nil
}

// NewLock creates a FlexGuard lock on the simulation.
func (s *Simulation) NewLock(name string) *core.FlexGuard {
	return s.RT.NewLock(name)
}

// NewBaselineLock creates one of the paper's baseline locks by registry
// name ("blocking", "posix", "mcs", "mcstp", "shuffle", "malthusian",
// "uscl", "tas", "tatas", "ticket", "clh", "backoff", "spin-ext").
func (s *Simulation) NewBaselineLock(alg, name string) (locks.Lock, error) {
	info, err := locks.Lookup(alg)
	if err != nil {
		return nil, err
	}
	return info.New(s.shared, name), nil
}

// Spawn adds a simulated thread.
func (s *Simulation) Spawn(name string, body func(p *sim.Proc)) *sim.Thread {
	return s.M.Spawn(name, body)
}

// Run processes the simulation until the given virtual time and returns
// the quiesce time.
func (s *Simulation) Run(until sim.Time) sim.Time {
	return s.M.Run(until)
}

// Algorithms returns the names of the lock algorithms evaluated in the
// paper, in figure order.
func Algorithms() []string {
	return append([]string(nil), harness.Algorithms...)
}

// Version identifies this reproduction.
const Version = "flexguard-repro 1.0 (SOSP 2025 reproduction)"

// String implements fmt.Stringer for Simulation.
func (s *Simulation) String() string {
	return fmt.Sprintf("flexguard simulation: %d contexts, %d threads",
		s.M.Config().NumCPUs, len(s.M.Threads()))
}
