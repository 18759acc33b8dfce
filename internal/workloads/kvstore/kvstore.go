// Package kvstore implements a miniature LSM key-value store modeled on
// LevelDB for the §5.3 experiments (Figure 4): a skiplist memtable, a
// write-ahead log, immutable flushed tables, and — the property the paper
// exercises — one global database mutex that readrandom and fillrandom
// contend on.
package kvstore

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/sim"
)

// DB is the miniature LevelDB.
type DB struct {
	mu  locks.Lock
	m   *sim.Machine
	mem *skiplist
	// seq is the sequence-number cache line, touched under the mutex on
	// every operation exactly as LevelDB's VersionSet::LastSequence.
	seq *sim.Word
	// walTail is the WAL buffer tail cache line.
	walTail *sim.Word
	// flushed counts entries moved to immutable tables.
	flushed  int
	flushes  int
	memLimit int
	inserts  uint64
}

const (
	walTicks  sim.Time = 250 // a WAL append (tmpfs-backed)
	stepTicks sim.Time = 14  // one skiplist traversal step
)

// DBOptions configures Open.
type DBOptions struct {
	// MemtableLimit is the entry count that triggers a flush (default 8192).
	MemtableLimit int
	NewLock       func(name string) locks.Lock
}

// Open creates a DB on machine m.
func Open(m *sim.Machine, o DBOptions) *DB {
	if o.MemtableLimit == 0 {
		o.MemtableLimit = 8192
	}
	return &DB{
		mu:       o.NewLock("db.mutex"),
		m:        m,
		mem:      newSkiplist(m.Rand().Split()),
		seq:      m.NewWord("db.seq", 0),
		walTail:  m.NewWord("db.wal", 0),
		memLimit: o.MemtableLimit,
	}
}

// Put inserts (key, value): WAL append plus memtable insert under the
// global mutex, with a synchronous flush when the memtable fills (the
// stall LevelDB applies when compaction cannot keep up).
func (db *DB) Put(p *sim.Proc, key, value uint64) {
	db.mu.Lock(p)
	p.Compute(walTicks)
	p.Store(db.walTail, key)
	steps := db.mem.Insert(key, value)
	p.Compute(sim.Time(steps) * stepTicks)
	s := p.Load(db.seq)
	p.Store(db.seq, s+1)
	db.inserts++
	if db.mem.Len() >= db.memLimit {
		// Flush: swap in a fresh memtable; the flush work itself is
		// proportional to the table size.
		p.Compute(sim.Time(db.mem.Len()) * 4)
		db.flushed += db.mem.Len()
		db.flushes++
		db.mem = newSkiplist(db.m.Rand().Split())
	}
	db.mu.Unlock(p)
}

// Get reads a key: the mutex is held to take the sequence snapshot and
// reference the memtable and current version (LevelDB's DBImpl::Get holds
// the mutex across MemTable::Ref, Version::Ref and the snapshot read —
// a few hundred nanoseconds of refcounting), then the search proceeds
// without the lock.
func (db *DB) Get(p *sim.Proc, key uint64) (uint64, bool) {
	db.mu.Lock(p)
	p.Load(db.seq)
	p.Compute(300) // mem->Ref(), imm->Ref(), current->Ref(), snapshot
	mem := db.mem
	db.mu.Unlock(p)
	v, ok, steps := mem.Get(key)
	p.Compute(sim.Time(steps)*stepTicks + 60)
	if !ok {
		// Not in the memtable: charge a table lookup (block cache hit).
		p.Compute(800)
	}
	// Unref path re-acquires the mutex briefly, as LevelDB does.
	db.mu.Lock(p)
	p.Compute(120) // mem->Unref(), current->Unref()
	db.mu.Unlock(p)
	return v, ok
}

// Stats returns (inserts, memtable length, flushed entries, flush count).
func (db *DB) Stats() (uint64, int, int, int) {
	return db.inserts, db.mem.Len(), db.flushed, db.flushes
}

// Validate checks the sequence number matches the insert count and that
// no entries were lost across flushes.
func (db *DB) Validate() error {
	if db.seq.V() != db.inserts {
		return fmt.Errorf("kvstore: seq %d, inserts %d (lost updates)", db.seq.V(), db.inserts)
	}
	return nil
}

// WorkloadKind selects the benchmark flavor.
type WorkloadKind int

// Benchmark kinds (LevelDB's db_bench names).
const (
	ReadRandom WorkloadKind = iota
	FillRandom
)

// BenchOptions configures Bench.
type BenchOptions struct {
	Kind     WorkloadKind
	Threads  int
	Deadline sim.Time
	// Keyspace is the random key range (default 1<<20).
	Keyspace int
	// Preload inserts this many keys before the measured phase
	// (readrandom needs a populated store; default 4096).
	Preload int
}

// Bench spawns the benchmark threads against db.
func Bench(m *sim.Machine, db *DB, o BenchOptions) {
	if o.Threads <= 0 {
		panic("kvstore: Threads must be positive")
	}
	if o.Keyspace == 0 {
		o.Keyspace = 1 << 20
	}
	if o.Preload == 0 {
		o.Preload = 4096
	}
	for i := 0; i < o.Threads; i++ {
		first := i == 0
		m.Spawn("db-worker", func(p *sim.Proc) {
			if first {
				for k := 0; k < o.Preload; k++ {
					db.Put(p, uint64(p.Rand().Intn(o.Keyspace)), uint64(k))
				}
			}
			for p.Now() < o.Deadline {
				key := uint64(p.Rand().Intn(o.Keyspace))
				t0 := p.Now()
				if o.Kind == FillRandom {
					db.Put(p, key, key^0x5555)
				} else {
					db.Get(p, key)
				}
				p.RecordLatency(p.Now() - t0)
				p.CountOp()
				p.Compute(80) // key generation and benchmark loop overhead
			}
		})
	}
}
