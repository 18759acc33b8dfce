// Package raytrace models SPLASH-2X Raytrace (§5.3, Figures 3m–p): a
// parallel renderer where workers pull tiles from a work queue guarded by
// a single contended lock, among ~45 locks total (the others are touched
// rarely). The bulk of the time is spent tracing rays (pure computation),
// so lock contention only matters at high thread counts.
package raytrace

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/sim"
)

// Options configures the workload.
type Options struct {
	Threads  int
	Deadline sim.Time
	// ColdLocks is the number of rarely-used auxiliary locks (default 44,
	// so 45 locks total as in the paper).
	ColdLocks int
	NewLock   func(name string) locks.Lock
}

// tileTicks scales the per-tile computation: virtual ticks charged per
// ~2048 intersection tests × tileTicks/2, giving tiles of roughly 2–6k
// ticks.
const tileTicks sim.Time = 4000

// Workload is a built raytrace instance.
type Workload struct {
	taskLock  locks.Lock
	nextTile  *sim.Word
	doneTiles *sim.Word
	coldLocks []locks.Lock
	coldData  []*sim.Word
	// Checksums accumulates the rendered pixel sums per thread (the
	// actual image output; summed for validation).
	Checksums []float64
}

// Build spawns the renderer threads.
func Build(m *sim.Machine, o Options) *Workload {
	if o.Threads <= 0 {
		panic("raytrace: Threads must be positive")
	}
	if o.ColdLocks == 0 {
		o.ColdLocks = 44
	}
	w := &Workload{
		taskLock:  o.NewLock("rt.tasks"),
		nextTile:  m.NewWord("rt.next", 0),
		doneTiles: m.NewWord("rt.done", 0),
		coldLocks: make([]locks.Lock, o.ColdLocks),
		coldData:  make([]*sim.Word, o.ColdLocks),
		Checksums: make([]float64, o.Threads),
	}
	for i := range w.coldLocks {
		w.coldLocks[i] = o.NewLock(sim.IndexedName("rt.cold", i))
		w.coldData[i] = m.NewWordAt("rt.cold", i, ".d", 0)
	}
	for i := 0; i < o.Threads; i++ {
		i := i
		m.Spawn("rt-worker", func(p *sim.Proc) {
			for p.Now() < o.Deadline {
				// Grab the next tile under the hot lock.
				w.taskLock.Lock(p)
				tile := p.Load(w.nextTile)
				p.Store(w.nextTile, tile+1)
				w.taskLock.Unlock(p)
				// Take the traced tile (ray-sphere intersections and
				// shadow rays, rendered once per process; see tiles);
				// charge virtual time proportional to the intersection
				// tests its rendering performed.
				t := tiles()[tile%tileCount]
				w.Checksums[i] += t.checksum
				p.Compute(sim.Time(t.tests) * tileTicks / 2048)
				// Rarely touch an auxiliary lock (shading caches etc.).
				if p.Rand().Intn(64) == 0 {
					k := p.Rand().Intn(len(w.coldLocks))
					w.coldLocks[k].Lock(p)
					v := p.Load(w.coldData[k])
					p.Store(w.coldData[k], v+1)
					w.coldLocks[k].Unlock(p)
				}
				// Record completion under the hot lock (frame buffer merge).
				w.taskLock.Lock(p)
				d := p.Load(w.doneTiles)
				p.Store(w.doneTiles, d+1)
				w.taskLock.Unlock(p)
				p.CountOp()
			}
		})
	}
	return w
}

// Validate checks that every dispatched tile was completed exactly once
// up to the tiles still in flight at shutdown.
func (w *Workload) Validate(threads int) error {
	disp, done := w.nextTile.V(), w.doneTiles.V()
	if done > disp {
		return fmt.Errorf("raytrace: %d tiles done but only %d dispatched", done, disp)
	}
	if disp-done > uint64(threads) {
		return fmt.Errorf("raytrace: %d tiles lost (disp %d, done %d)", disp-done-uint64(threads), disp, done)
	}
	return nil
}
