// Package hashtable implements the hash-table microbenchmark of §5.2
// (Figures 3a–d): a table of 100 buckets, each protected by its own lock,
// accessed under a Zipfian key distribution that is periodically re-shifted
// across the value range so the hot bucket moves. Throughput is hash-table
// operations per second.
package hashtable

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/locks"
	"repro/internal/sim"
)

// slotsPerBucket is the number of key/value slots scanned inside a bucket.
const slotsPerBucket = 8

// Options configures the benchmark.
type Options struct {
	Threads  int
	Buckets  int // default 100 (one lock each)
	Deadline sim.Time
	// ShiftEvery re-targets a thread's Zipfian peak after this many
	// operations (default 1024).
	ShiftEvery int
	// WriteFraction in percent (default 50).
	WriteFraction int
	NewLock       func(name string) locks.Lock
}

// bucket is one hash-table bucket: a lock plus slot storage on two cache
// lines (keys and values).
type bucket struct {
	lock locks.Lock
	keys []*sim.Word
	vals []*sim.Word
}

// Workload is a built hash-table benchmark instance.
type Workload struct {
	buckets []*bucket
	// inserted counts successful writes (validation).
	writesDone []uint64
}

// Build creates the table and spawns worker threads.
func Build(m *sim.Machine, o Options) *Workload {
	if o.Threads <= 0 {
		panic("hashtable: Threads must be positive")
	}
	if o.Buckets == 0 {
		o.Buckets = 100
	}
	if o.ShiftEvery == 0 {
		o.ShiftEvery = 1024
	}
	if o.WriteFraction == 0 {
		o.WriteFraction = 50
	}
	w := &Workload{
		buckets:    make([]*bucket, o.Buckets),
		writesDone: make([]uint64, o.Threads),
	}
	for i := range w.buckets {
		b := &bucket{
			lock: o.NewLock(sim.IndexedName("ht.b", i)),
			keys: m.NewWordsAt("ht.b", i, ".keys", slotsPerBucket),
			vals: m.NewWordsAt("ht.b", i, ".vals", slotsPerBucket),
		}
		w.buckets[i] = b
	}
	for i := 0; i < o.Threads; i++ {
		i := i
		m.Spawn("ht-worker", func(p *sim.Proc) {
			zipf := dist.NewZipf(o.Buckets, 0.99, p.Rand())
			zipf.ShiftRandom()
			ops := 0
			for p.Now() < o.Deadline {
				if ops%o.ShiftEvery == o.ShiftEvery-1 {
					zipf.ShiftRandom()
				}
				key := uint64(p.Rand().Intn(1 << 20))
				p.Compute(60) // hash the key
				b := w.buckets[zipf.Next()]
				t0 := p.Now()
				write := p.Rand().Intn(100) < o.WriteFraction
				b.lock.Lock(p)
				// Scan the slots for the key.
				slot := int(key % slotsPerBucket)
				for s := 0; s < slotsPerBucket/2; s++ {
					p.Load(b.keys[(slot+s)%slotsPerBucket])
				}
				if write {
					p.Store(b.keys[slot], key)
					p.Store(b.vals[slot], key^0xABCD)
					w.writesDone[i]++
				} else {
					p.Load(b.vals[slot])
				}
				b.lock.Unlock(p)
				p.RecordLatency(p.Now() - t0)
				p.CountOp()
				ops++
			}
		})
	}
	return w
}

// Validate checks that every value slot is consistent with its key slot
// (a torn write under broken mutual exclusion would leave a mismatch).
func (w *Workload) Validate() error {
	for bi, b := range w.buckets {
		for s := range b.keys {
			k, v := b.keys[s].V(), b.vals[s].V()
			if k == 0 && v == 0 {
				continue
			}
			if v != k^0xABCD {
				return fmt.Errorf("bucket %d slot %d: key %d has value %d, want %d", bi, s, k, v, k^0xABCD)
			}
		}
	}
	return nil
}
