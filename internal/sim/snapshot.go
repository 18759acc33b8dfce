package sim

// Machine snapshot/clone: the sweep engine runs the expensive shared
// setup of a parameter-grid shape (machine construction, environment
// and word allocation, a warm phase that populates cache-line and
// scheduler state) exactly once, snapshots the machine at the phase
// boundary, and stamps out one cheap clone per (cell, seed) instead of
// cold-starting each one.
//
// Snapshots use a run-to-quiescent convention rather than suspending
// live coroutines (whose Go stacks cannot be copied): a snapshot is
// legal only at a RunPhase boundary where every thread has exited (or
// died to the crash model) and the event queue is empty. All remaining
// machine state is then plain data — the clock, the RNG stream
// position, the word arenas, counters, and the tracer's digest state —
// and Clone is a bulk copy plus a replay of the construction closure
// for the state that lives on the Go heap (lock objects, hooks,
// observers), whose Words adopt the snapshot's values instead of
// allocating fresh ones.
//
// Restrictions, enforced where possible and documented otherwise:
//
//   - Config.RecordRunnable must be off: the runnable timeline is
//     cumulative telemetry with no phase boundary.
//   - The warm phase must not leave diverged state in plain Go fields
//     of objects the construction closure rebuilds (lock internals,
//     monitor bookkeeping): only Words are carried across. Warm
//     workloads should touch dedicated warm words, not the locks.
//   - A clone cannot itself be snapshotted (its word registry is not
//     id-dense); Snapshot rejects it.

// ghost is the frozen record of a thread that finished before the
// snapshot. Clones restore ghosts as inert Thread objects so thread
// ids, spawn order, and per-thread statistics match the snapshotted
// machine exactly (Collect-style consumers see identical state).
type ghost struct {
	id      int
	name    string
	state   State // StateDone or StateDead
	lastCPU int

	csCounter int32
	reg       uint64

	spinIters   int64
	ops         int64
	latSum      int64
	latCount    int64
	latSamples  []int64
	latStride   int64
	preemptions int64
	switches    int64
	migrations  int64
}

// tracerSnap freezes a Tracer (ring contents plus streaming-digest
// state) so a clone's trace is a byte-exact continuation.
type tracerSnap struct {
	events  []TraceEvent
	max     int
	head    int
	full    bool
	dropped int64
	digest  uint64
	seen    int64
}

// Snapshot is a frozen, self-contained copy of a quiescent machine's
// deterministic state. It shares nothing with the machine it came from:
// taking it is O(state), and every Clone copies it again, so snapshots
// stay valid however the original machine proceeds.
type Snapshot struct {
	cfg      Config
	clock    Time
	rngState uint64

	nextWord    int32
	wordName    []string
	wordLine    []int32
	lineOwner   []int32
	lineSharers []uint64
	valChunks   [][]uint64

	lockNames []string
	ghosts    []ghost
	tracer    *tracerSnap

	switches    int64
	preemptions int64
	steals      int64
	migrations  int64
}

// Snapshot captures the machine's state at a quiescent RunPhase
// boundary. It panics if the machine is not at one: any thread still
// live, any event still queued, or any futex waiter parked means the
// machine's continuation depends on coroutine stacks that cannot be
// copied.
func (m *Machine) Snapshot() *Snapshot {
	switch {
	case m.running:
		panic("sim: Snapshot while running")
	case m.finished:
		panic("sim: Snapshot after Run finished")
	case m.cfg.RecordRunnable:
		panic("sim: Snapshot with RecordRunnable: the runnable timeline is not snapshottable")
	case m.eq.Len() != 0:
		panic("sim: Snapshot with pending events; snapshot only at a RunPhase boundary")
	case len(m.futexQ) != 0:
		panic("sim: Snapshot with parked futex waiters")
	case len(m.words) != int(m.nextWord):
		panic("sim: Snapshot of a cloned machine is not supported")
	}
	for _, t := range m.threads {
		if t.state != StateDone && t.state != StateDead {
			panic("sim: Snapshot with live thread " + t.name + " (" + t.state.String() + "); run the phase to quiescence first")
		}
	}

	s := &Snapshot{
		cfg:         m.cfg,
		clock:       m.clock,
		rngState:    m.rng.State(),
		nextWord:    m.nextWord,
		wordName:    make([]string, len(m.words)),
		wordLine:    make([]int32, len(m.words)),
		lineOwner:   append([]int32(nil), m.lineOwner...),
		lineSharers: append([]uint64(nil), m.lineSharers...),
		valChunks:   make([][]uint64, len(m.valChunks)),
		lockNames:   append([]string(nil), m.lockNames...),
		switches:    m.TotalSwitches,
		preemptions: m.TotalPreemptions,
		steals:      m.TotalSteals,
		migrations:  m.TotalMigrations,
	}
	for i, w := range m.words {
		s.wordName[i] = w.name
		s.wordLine[i] = w.lineID
	}
	for i, c := range m.valChunks {
		s.valChunks[i] = append([]uint64(nil), c...)
	}
	for _, t := range m.threads {
		s.ghosts = append(s.ghosts, ghost{
			id:          t.id,
			name:        t.name,
			state:       t.state,
			lastCPU:     t.lastCPU,
			csCounter:   t.CSCounter,
			reg:         t.Reg,
			spinIters:   t.SpinIters,
			ops:         t.Ops,
			latSum:      t.LatSum,
			latCount:    t.LatCount,
			latSamples:  append([]int64(nil), t.latSamples...),
			latStride:   t.latStride,
			preemptions: t.Preemptions,
			switches:    t.Switches,
			migrations:  t.Migrations,
		})
	}
	if m.tracer != nil {
		m.tracer.flush()
		s.tracer = &tracerSnap{
			events:  append([]TraceEvent(nil), m.tracer.events...),
			max:     m.tracer.max,
			head:    m.tracer.head,
			full:    m.tracer.full,
			dropped: m.tracer.Dropped,
			digest:  m.tracer.digest,
			seen:    m.tracer.Seen,
		}
	}
	return s
}

// Clone builds an independent machine resuming from the snapshot.
//
// alloc is the same construction closure that built the snapshotted
// machine's Go-heap state before its warm phase — environment, locks,
// hooks, observers, tracer — and is replayed on the fresh machine. Word
// allocations inside it adopt the snapshot's values and cache-line
// state (verified by name, so a divergent replay fails loudly) instead
// of allocating fresh state; it must not spawn threads (the warm
// phase's threads are restored as ghosts) and must attach a tracer
// exactly when the snapshotted machine had one.
//
// After Clone the machine is at the phase boundary: spawn the
// measured workload and call Run. Clones made from one snapshot are
// fully independent of each other and of the original machine. For
// per-seed cells, call Reseed with the cell seed on both the clone and
// any cold-started reference — the RNG position carried by the
// snapshot reflects the original machine's history, which a replayed
// construction cannot reproduce on its own.
func (s *Snapshot) Clone(alloc func(m *Machine)) *Machine {
	m := New(s.cfg)
	m.clock = s.clock
	m.adoptWords = int(s.nextWord)
	m.adoptLine = s.wordLine
	m.adoptName = s.wordName
	m.lineOwner = append([]int32(nil), s.lineOwner...)
	m.lineSharers = append([]uint64(nil), s.lineSharers...)
	m.valChunks = make([][]uint64, len(s.valChunks))
	for i, c := range s.valChunks {
		m.valChunks[i] = append([]uint64(nil), c...)
	}
	if alloc != nil {
		alloc(m)
	}
	switch {
	case len(m.threads) != 0:
		panic("sim: Clone alloc must not spawn threads")
	case int(m.nextWord) > int(s.nextWord):
		panic("sim: Clone alloc allocated more words than the snapshotted construction")
	case len(m.lockNames) != len(s.lockNames):
		panic("sim: Clone alloc registered a different lock set than the snapshotted construction")
	case (m.tracer == nil) != (s.tracer == nil):
		panic("sim: Clone alloc tracer attachment differs from the snapshotted machine")
	}
	// Words allocated by the warm phase (ids in [m.nextWord, s.nextWord))
	// have no handles in the clone — their owners exited — but their
	// arena slots and lines were copied above; advance the counters past
	// them so workload allocations continue at the same ids and line ids
	// as on the continuing original.
	m.nextWord = s.nextWord
	for int32(len(m.lineOwner)) < int32(len(s.lineOwner)) {
		m.newLine()
	}
	for _, g := range s.ghosts {
		t := &Thread{
			id:          g.id,
			name:        g.name,
			m:           m,
			cpu:         -1,
			lastCPU:     g.lastCPU,
			state:       g.state,
			done:        g.state == StateDone,
			CSCounter:   g.csCounter,
			Reg:         g.reg,
			SpinIters:   g.spinIters,
			Ops:         g.ops,
			LatSum:      g.latSum,
			LatCount:    g.latCount,
			latSamples:  append([]int64(nil), g.latSamples...),
			latStride:   g.latStride,
			Preemptions: g.preemptions,
			Switches:    g.switches,
			Migrations:  g.migrations,
		}
		m.threads = append(m.threads, t)
	}
	m.rng.SetState(s.rngState)
	m.TotalSwitches = s.switches
	m.TotalPreemptions = s.preemptions
	m.TotalSteals = s.steals
	m.TotalMigrations = s.migrations
	if s.tracer != nil {
		tr := m.tracer
		tr.events = append(tr.events[:0], s.tracer.events...)
		tr.max = s.tracer.max
		tr.head = s.tracer.head
		tr.full = s.tracer.full
		tr.Dropped = s.tracer.dropped
		tr.digest = s.tracer.digest
		tr.Seen = s.tracer.seen
		tr.pending = tr.pending[:0]
	}
	return m
}
