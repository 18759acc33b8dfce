// Package streamcluster models SPLASH-2X/PARSEC Streamcluster (§5.3,
// Figures 3q–t): a data-mining kernel that alternates parallel distance
// computations with barrier synchronization, and accumulates costs under a
// single contended lock. The barrier interaction is what makes this the
// paper's adversarial case for FlexGuard on Intel: busy-waiting lock
// waiters add oversubscription that delays barrier stragglers.
package streamcluster

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/sim"
)

// Options configures the workload.
type Options struct {
	Threads    int
	Deadline   sim.Time
	NewLock    func(name string) locks.Lock
	NewBarrier func(name string, n int) *locks.Barrier
}

// chunkTicks is the mean per-phase computation per thread.
const chunkTicks sim.Time = 3000

// Workload is a built streamcluster instance.
type Workload struct {
	costLock  locks.Lock
	totalCost *sim.Word
	phases    *sim.Word
	barrier   *locks.Barrier
	adds      []uint64
}

// Build spawns the worker threads.
func Build(m *sim.Machine, o Options) *Workload {
	if o.Threads <= 0 {
		panic("streamcluster: Threads must be positive")
	}
	w := &Workload{
		costLock:  o.NewLock("sc.cost"),
		totalCost: m.NewWord("sc.total", 0),
		phases:    m.NewWord("sc.phases", 0),
		barrier:   o.NewBarrier("sc.bar", o.Threads),
		adds:      make([]uint64, o.Threads),
	}
	for i := 0; i < o.Threads; i++ {
		i := i
		m.Spawn("sc-worker", func(p *sim.Proc) {
			for p.Now() < o.Deadline {
				// Parallel phase: compute distances for our chunk.
				p.Compute(chunkTicks/2 + sim.Time(p.Rand().Int63n(int64(chunkTicks))))
				// Accumulate the chunk cost under the hot lock, several
				// short critical sections per phase (as pgain does).
				for k := 0; k < 4; k++ {
					w.costLock.Lock(p)
					v := p.Load(w.totalCost)
					p.Compute(40)
					p.Store(w.totalCost, v+1)
					w.costLock.Unlock(p)
					w.adds[i]++
					p.Compute(200)
				}
				// Phase barrier: everyone must arrive before the next
				// iteration.
				w.barrier.Wait(p)
				if i == 0 {
					p.Store(w.phases, p.Load(w.phases)+1)
				}
				w.barrier.Wait(p)
				p.CountOp()
			}
		})
	}
	return w
}

// Phases returns the number of completed barrier-delimited phases.
func (w *Workload) Phases() uint64 { return w.phases.V() }

// Validate checks the accumulated cost matches the performed additions.
func (w *Workload) Validate() error {
	var want uint64
	for _, a := range w.adds {
		want += a
	}
	if w.totalCost.V() != want {
		return fmt.Errorf("streamcluster: cost %d, want %d (lost updates)", w.totalCost.V(), want)
	}
	return nil
}
