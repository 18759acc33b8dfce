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

import "repro/internal/sim"

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
	// events), surfaced by the harness's fuzz runs as FuzzResult.Abandoned.
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

// enc encodes a thread id into a queue word (0 is reserved for "none").
func enc(id int) uint64 { return uint64(id + 1) }

// dec decodes a queue word back to a thread id.
func dec(v uint64) int { return int(v - 1) }
