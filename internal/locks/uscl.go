package locks

import "repro/internal/sim"

// usclSlice is the lock-ownership slice duration. Patel et al. show u-SCL
// performance depends heavily on this heuristically chosen value (§2.2);
// ≈0.2 ms at the simulator's calibration.
const usclSlice = sim.Time(450_000)

// usclPoll is the timed-wait granularity of threads waiting for their
// slice (the published implementation uses timed waits similarly).
const usclPoll = usclSlice / 8

// usclAccounting is the per-lock/unlock bookkeeping cost (clock reads and
// usage-tracking arithmetic).
const usclAccounting = sim.Time(150)

// USCL is the user-level Scheduler-Cooperative Lock of Patel et al.
// (§2.2): lock opportunity is granted in fixed-duration slices, FIFO by
// ticket across threads. During its slice a thread acquires and releases
// the inner lock without contention; all other threads wait with timed
// sleeps. Ownership rotates at the first release after slice expiry, and
// waiters reclaim slices whose owner has gone quiet (e.g. was preempted
// for a long time or stopped using the lock).
//
// This is a condensed reimplementation of the published algorithm keeping
// its observable behaviour: strong long-term fairness, blocking-lock-like
// handovers, and sensitivity to the slice length. Its heavyweight per-lock
// state is modeled by the harness catalog's MaxLocks cap, reproducing
// the crashes the paper reports on the high-lock-count benchmarks (§5.3).
type USCL struct {
	m          *sim.Machine
	lid        int32
	sliceNext  *sim.Word // ticket dispenser
	sliceOwner *sim.Word // ticket currently allowed to use the lock
	sliceStart *sim.Word // grant timestamp of the current slice (0 = unclaimed)
	inner      *sim.Word // the actual mutual-exclusion word
	// Per-thread bookkeeping, indexed by thread id; each slot is touched
	// only by its thread. The spine is a pointer slice so a slot pointer
	// held across a yield stays valid while another thread's first
	// acquisition grows the table.
	slots []*usclSlot
}

// usclSlot is one thread's u-SCL bookkeeping.
type usclSlot struct {
	ticket     uint64
	haveTicket bool
	cur        uint64
	since      sim.Time
	claimed    uint64 // last ticket whose slice we stamped (claimed+1 encoding)
}

// NewUSCL returns a u-SCL lock.
func NewUSCL(m *sim.Machine, name string) *USCL {
	lid := m.RegisterLockName(name)
	return &USCL{
		m:          m,
		lid:        lid,
		sliceNext:  m.NewLockWord(lid, ".snext", 0),
		sliceOwner: m.NewLockWord(lid, ".sowner", 0),
		sliceStart: m.NewLockWord(lid, ".sstart", 0),
		inner:      m.NewLockWord(lid, ".inner", 0),
	}
}

// slot returns (allocating on first use) thread id's bookkeeping.
//
//flexlint:coldpath
func (l *USCL) slot(id int) *usclSlot {
	for id >= len(l.slots) {
		l.slots = append(l.slots, nil)
	}
	if l.slots[id] == nil {
		l.slots[id] = &usclSlot{}
	}
	return l.slots[id]
}

// Lock implements Lock.
func (l *USCL) Lock(p *sim.Proc) {
	id := p.ID()
	s := l.slot(id)
	if !s.haveTicket {
		s.ticket = p.Add(l.sliceNext, 1) - 1
		s.haveTicket = true
	}
	my := s.ticket
	blocked := false
	for {
		cur := p.Load(l.sliceOwner)
		if cur == my {
			break
		}
		if cur > my {
			// Our slice was reclaimed while we were off-CPU: re-queue with
			// a fresh ticket rather than waiting for a ticket that will
			// never come around again.
			s.ticket = p.Add(l.sliceNext, 1) - 1
			my = s.ticket
			continue
		}
		if s.cur != cur {
			s.cur, s.since = cur, p.Now()
		}
		st := p.Load(l.sliceStart)
		expired := (st != 0 && p.Now()-sim.Time(st) > 2*usclSlice) ||
			(st == 0 && p.Now()-s.since > 2*usclSlice)
		if expired {
			// The slice owner has gone quiet (preempted for a long time,
			// or holds a ticket it will never use): advance on its behalf.
			// Clear the stamp first so the next owner's grace period does
			// not start from the stale expired timestamp (which would let
			// waiters stampede past live tickets).
			p.Store(l.sliceStart, 0)
			p.CAS(l.sliceOwner, cur, cur+1)
			continue
		}
		if !blocked {
			blocked = true
			p.LockEvent(sim.TraceLockBlock, l.lid)
		}
		p.Sleep(usclPoll)
	}
	if s.claimed != my+1 {
		// First acquisition of this slice: stamp its start.
		s.claimed = my + 1
		p.Store(l.sliceStart, uint64(p.Now()))
	}
	// Within our slice the inner lock is normally uncontended; a stolen
	// slice can briefly overlap the previous owner, so wait politely.
	for p.CAS(l.inner, 0, enc(id)) != 0 {
		if !blocked {
			blocked = true
			p.LockEvent(sim.TraceLockBlock, l.lid)
		}
		p.Sleep(usclPoll)
	}
	p.LockEvent(sim.TraceAcquire, l.lid)
	// Per-acquisition accounting: u-SCL reads the clock and updates its
	// usage bookkeeping on every lock and unlock (the critical-section
	// time tracking that drives slice allocation).
	p.Compute(usclAccounting)
}

// Unlock implements Lock.
func (l *USCL) Unlock(p *sim.Proc) {
	id := p.ID()
	s := l.slot(id)
	my := s.ticket
	p.LockEvent(sim.TraceRelease, l.lid)
	p.Compute(usclAccounting)
	p.Store(l.inner, 0)
	// Our slice may have been reclaimed while we were preempted.
	if p.Load(l.sliceOwner) != my {
		s.haveTicket = false
		return
	}
	st := p.Load(l.sliceStart)
	if st != 0 && p.Now()-sim.Time(st) < usclSlice {
		return
	}
	// Slice over: rotate to the next ticket.
	s.haveTicket = false
	p.Store(l.sliceStart, 0)
	p.Store(l.sliceOwner, my+1)
}
