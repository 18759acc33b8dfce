// Package locks implements the baseline lock algorithms the paper
// evaluates FlexGuard against (§5.1): the pure blocking (futex) lock, the
// POSIX adaptive spin-then-park mutex, classic spinlocks (TAS, TATAS,
// Ticket, MCS, CLH), the blocking-backoff lock, the time-published MCS-TP
// lock, Dice's Malthusian lock, the spin-then-park Shuffle lock, the
// scheduler-cooperative u-SCL, and the TATAS spinlock with timeslice
// extension. All run on the simulator through the common Lock interface,
// playing the role the LiTL interposition library plays in the paper:
// identical workload, swap the lock.
package locks

import (
	"fmt"

	"repro/internal/sim"
)

// Lock is the mutual-exclusion interface every algorithm implements.
type Lock interface {
	Lock(p *sim.Proc)
	Unlock(p *sim.Proc)
}

// Shared holds per-machine state shared across lock instances of the
// algorithms that use one global queue node per thread (Shuffle lock),
// plus the robust-futex registry and cross-lock counters.
type Shared struct {
	m            *sim.Machine
	shuffleNodes []*shuffleNode
	robust       *RobustRegistry

	// Abandons counts queue-node abandonments: stale waiters removed by
	// MCS-TP's time-published heuristic plus dead waiters unlinked by
	// the robust queue repair. Plain Go bookkeeping (no sim cost or
	// events), surfaced by the harness as the locks.abandoned counter.
	Abandons int64
}

// NewShared creates the shared state for machine m.
func NewShared(m *sim.Machine) *Shared {
	return &Shared{m: m, shuffleNodes: make([]*shuffleNode, m.Config().MaxThreads)}
}

// Robust returns the machine's robust-futex registry, creating it (and
// registering its kill hook) on first use.
func (s *Shared) Robust() *RobustRegistry {
	if s.robust == nil {
		s.robust = NewRobustRegistry(s.m)
		s.robust.abandons = &s.Abandons
	}
	return s.robust
}

// Factory builds one lock instance.
type Factory func(s *Shared, name string) Lock

// Info describes a baseline algorithm in the registry.
type Info struct {
	Name string
	New  Factory
	// MaxLocks caps the number of lock instances the implementation can
	// handle (0 = unlimited). u-SCL's heavyweight per-lock state makes it
	// crash on the paper's high-lock-count benchmarks; the harness uses
	// this cap to reproduce the "missing lines" in Figures 3e–l.
	MaxLocks int
}

// Registry lists the baseline algorithms (FlexGuard variants are
// registered by the harness, which owns the Preemption Monitor).
func Registry() []Info {
	return []Info{
		{Name: "blocking", New: func(s *Shared, n string) Lock { return NewBlocking(s.m, n) }},
		{Name: "posix", New: func(s *Shared, n string) Lock { return NewPosix(s.m, n) }},
		{Name: "tas", New: func(s *Shared, n string) Lock { return NewTAS(s.m, n) }},
		{Name: "tatas", New: func(s *Shared, n string) Lock { return NewTATAS(s.m, n) }},
		{Name: "ticket", New: func(s *Shared, n string) Lock { return NewTicket(s.m, n) }},
		{Name: "backoff", New: func(s *Shared, n string) Lock { return NewBackoff(s.m, n) }},
		{Name: "mcs", New: func(s *Shared, n string) Lock { return NewMCS(s.m, n) }},
		{Name: "clh", New: func(s *Shared, n string) Lock { return NewCLH(s.m, n) }},
		{Name: "mcstp", New: func(s *Shared, n string) Lock {
			l := NewMCSTP(s.m, n)
			l.abandons = &s.Abandons
			return l
		}},
		{Name: "malthusian", New: func(s *Shared, n string) Lock { return NewMalthusian(s.m, n) }},
		{Name: "shuffle", New: func(s *Shared, n string) Lock { return NewShuffle(s, n) }},
		{Name: "uscl", New: func(s *Shared, n string) Lock { return NewUSCL(s.m, n) }, MaxLocks: 4096},
		{Name: "spin-ext", New: func(s *Shared, n string) Lock { return NewSpinExt(s.m, n) }},
	}
}

// RobustVariants lists the robust recovery variants. They resolve
// through Lookup under "robust/..." names but stay out of Registry() so
// the baseline sweeps and committed goldens are unchanged.
func RobustVariants() []Info {
	return []Info{
		{Name: "robust/blocking", New: func(s *Shared, n string) Lock {
			return NewRobustBlocking(s.m, s.Robust(), n)
		}},
		{Name: "robust/mcs", New: func(s *Shared, n string) Lock {
			return NewRobustMCS(s.m, s.Robust(), n)
		}},
	}
}

// Lookup returns the registry entry for name (robust variants included).
func Lookup(name string) (Info, error) {
	for _, in := range Registry() {
		if in.Name == name {
			return in, nil
		}
	}
	for _, in := range RobustVariants() {
		if in.Name == name {
			return in, nil
		}
	}
	return Info{}, fmt.Errorf("locks: unknown algorithm %q", name)
}

// enc encodes a thread id into a queue word (0 is reserved for "none").
func enc(id int) uint64 { return uint64(id + 1) }

// dec decodes a queue word back to a thread id.
func dec(v uint64) int { return int(v - 1) }
