package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are
// lock-free, allocation-free and concurrency-safe.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (must be non-negative for counter semantics; not
// enforced to keep the hot path branch-free).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry is a named collection of counters. Creation (the Counter
// lookup) takes a mutex and may allocate; counters themselves are
// allocation-free to update, so the pattern is: resolve counters once
// at setup, record freely on the hot path. A zero Registry is ready to
// use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}
