// Package dedup models PARSEC's Dedup (§5.3, Figures 3i–l): a data-stream
// compression pipeline (chunk → fingerprint → compress/store) whose
// deduplication hash table is striped over a very large number of locks,
// all regularly used by multiple threads. The paper uses this workload to
// show that algorithms with one queue node per thread per lock (MCS,
// MCS-TP, Malthusian) pay cache misses loading nodes at high lock counts,
// while FlexGuard and the Shuffle lock (one global node per thread) are
// immune.
package dedup

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/sim"
)

// Options configures the workload.
type Options struct {
	Threads  int
	Deadline sim.Time
	// Stripes is the number of dedup-table stripes (one lock each;
	// default 65536 — scaled from the paper's 266K to keep simulator
	// memory reasonable while remaining far beyond any cache).
	Stripes int
	NewLock func(name string) locks.Lock
}

// Per-stage costs, in ticks per 2 KiB of chunk.
const (
	chunkTicks    sim.Time = 400
	hashTicks     sim.Time = 300
	compressTicks sim.Time = 600
)

// stripe is one dedup-table stripe: a lock plus two words (bucket header
// and entry payload).
type stripe struct {
	lock  locks.Lock
	count *sim.Word
	entry *sim.Word
}

// Workload is a built dedup instance.
type Workload struct {
	stripes   []stripe
	outLock   locks.Lock
	outQueue  *sim.Word
	inserted  []uint64
	duplicate []uint64
}

// Build creates the striped table and spawns pipeline threads.
func Build(m *sim.Machine, o Options) *Workload {
	if o.Threads <= 0 {
		panic("dedup: Threads must be positive")
	}
	if o.Stripes == 0 {
		o.Stripes = 65536
	}
	w := &Workload{
		stripes:   make([]stripe, o.Stripes),
		outLock:   o.NewLock("dd.out"),
		outQueue:  m.NewWord("dd.outq", 0),
		inserted:  make([]uint64, o.Threads),
		duplicate: make([]uint64, o.Threads),
	}
	for i := range w.stripes {
		w.stripes[i] = stripe{
			lock:  o.NewLock(sim.IndexedName("dd.s", i)),
			count: m.NewWordAt("dd.s", i, ".count", 0),
			entry: m.NewWordAt("dd.s", i, ".entry", 0),
		}
	}
	for i := 0; i < o.Threads; i++ {
		i := i
		m.Spawn("dd-worker", func(p *sim.Proc) {
			// Each worker scans its own partition of the input stream with
			// real content-defined chunking (see chunker.go); replayed
			// stream regions produce genuine duplicate fingerprints.
			ck := newChunker(p.Rand().Uint64())
			for p.Now() < o.Deadline {
				// Stages 1+2: scan to the next content-defined boundary and
				// fingerprint it; cost follows the bytes actually scanned.
				fp, length := ck.NextChunk()
				p.Compute(chunkTicks * sim.Time(length) / 2048)
				p.Compute(hashTicks * sim.Time(length) / 2048)
				s := &w.stripes[int(fp%uint64(len(w.stripes)))]
				// Stage 3: dedup-table probe under the stripe lock.
				t0 := p.Now()
				s.lock.Lock(p)
				seen := p.Load(s.entry) == fp
				if seen {
					w.duplicate[i]++
				} else {
					p.Store(s.entry, fp)
					c := p.Load(s.count)
					p.Store(s.count, c+1)
					w.inserted[i]++
				}
				s.lock.Unlock(p)
				p.RecordLatency(p.Now() - t0)
				if !seen {
					// New chunk: compress and append to the output stream.
					p.Compute(compressTicks * sim.Time(length) / 2048)
					w.outLock.Lock(p)
					q := p.Load(w.outQueue)
					p.Store(w.outQueue, q+1)
					w.outLock.Unlock(p)
				}
				p.CountOp()
			}
		})
	}
	return w
}

// Validate checks the stripe insert counters against the per-thread
// tallies and the output queue length.
func (w *Workload) Validate() error {
	var wantIns uint64
	for _, v := range w.inserted {
		wantIns += v
	}
	var gotIns uint64
	for _, s := range w.stripes {
		gotIns += s.count.V()
	}
	if gotIns != wantIns {
		return fmt.Errorf("dedup: stripe inserts %d, thread tallies %d (lost updates)", gotIns, wantIns)
	}
	if out := w.outQueue.V(); out > wantIns {
		return fmt.Errorf("dedup: output queue %d exceeds inserts %d", out, wantIns)
	}
	return nil
}
