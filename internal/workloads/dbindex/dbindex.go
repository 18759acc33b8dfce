// Package dbindex implements the memory-optimized database index workload
// of §5.3 (Figures 3e–h): a B+-tree with one lock per node traversed with
// lock coupling, driven PiBench-style by a self-similar key distribution
// (skew 0.2) with a 50/50 read/write mix. The tree has a large total lock
// count but only the root and its children are heavily contended — the
// paper reports 16M locks of which 14 are hot; the simulator scales the
// node count down while preserving that hot/cold structure.
package dbindex

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/locks"
	"repro/internal/sim"
)

// Options configures the workload.
type Options struct {
	Threads  int
	Deadline sim.Time
	// Keys is the keyspace size (default 1<<17). Fanout is the B+-tree
	// node fanout (default 64).
	Keys   int
	Fanout int
	// WriteFraction in percent (default 50).
	WriteFraction int
	// Skew is the self-similar skew factor (default 0.2).
	Skew    float64
	NewLock func(name string) locks.Lock
}

// node is a B+-tree node: its lock, one word standing for its header
// cache line, and either children or leaf values.
type node struct {
	lock     locks.Lock
	header   *sim.Word
	children []*node
	// Leaf storage: lo is the first key of this leaf; vals holds one word
	// per key in the leaf (grouped onto shared cache lines in chunks).
	lo   int
	vals []*sim.Word
}

// Tree is the built B+-tree index.
type Tree struct {
	root      *node
	keys      int
	fanout    int
	leafSpan  int
	NodeCount int
	writes    []uint64
}

// Build constructs the tree and spawns the worker threads.
func Build(m *sim.Machine, o Options) *Tree {
	if o.Threads <= 0 {
		panic("dbindex: Threads must be positive")
	}
	if o.Keys == 0 {
		o.Keys = 1 << 17
	}
	if o.Fanout == 0 {
		o.Fanout = 64
	}
	if o.WriteFraction == 0 {
		o.WriteFraction = 50
	}
	if o.Skew == 0 {
		o.Skew = 0.2
	}
	t := &Tree{keys: o.Keys, fanout: o.Fanout, writes: make([]uint64, o.Threads)}
	t.leafSpan = o.Fanout
	t.root = t.build(m, o, 0, o.Keys)
	for i := 0; i < o.Threads; i++ {
		i := i
		m.Spawn("idx-worker", func(p *sim.Proc) {
			src := dist.NewSelfSimilar(o.Keys, o.Skew, p.Rand())
			for p.Now() < o.Deadline {
				key := src.Next()
				write := p.Rand().Intn(100) < o.WriteFraction
				t0 := p.Now()
				t.access(p, key, write)
				if write {
					t.writes[i]++
				}
				p.RecordLatency(p.Now() - t0)
				p.CountOp()
				p.Compute(120) // key generation / result handling
			}
		})
	}
	return t
}

// build recursively constructs the subtree covering keys [lo, lo+span).
func (t *Tree) build(m *sim.Machine, o Options, lo, span int) *node {
	t.NodeCount++
	id := t.NodeCount
	n := &node{
		lock:   o.NewLock(sim.IndexedName("idx.n", id)),
		header: m.NewWordAt("idx.n", id, ".hdr", 0),
		lo:     lo,
	}
	if span <= t.leafSpan {
		n.vals = m.NewWordsAt("idx.n", id, ".vals", span)
		return n
	}
	childSpan := (span + o.Fanout - 1) / o.Fanout
	for off := 0; off < span; off += childSpan {
		s := childSpan
		if off+s > span {
			s = span - off
		}
		n.children = append(n.children, t.build(m, o, lo+off, s))
	}
	return n
}

// access performs one lock-coupled traversal to key's leaf and reads or
// writes the value.
func (t *Tree) access(p *sim.Proc, key int, write bool) {
	cur := t.root
	cur.lock.Lock(p)
	for len(cur.children) > 0 {
		p.Load(cur.header)
		p.Compute(30) // binary search within the node
		childSpan := (t.spanOf(cur) + len(cur.children) - 1) / len(cur.children)
		idx := (key - cur.lo) / childSpan
		if idx >= len(cur.children) {
			idx = len(cur.children) - 1
		}
		child := cur.children[idx]
		//flexlint:allow lockpair hand-over-hand coupling: the child is acquired before the parent is released
		child.lock.Lock(p)
		cur.lock.Unlock(p)
		cur = child //flexlint:allow lockpair hand-over-hand coupling releases the parent each pass
	}
	p.Load(cur.header)
	p.Compute(30)
	slot := key - cur.lo
	if slot < 0 || slot >= len(cur.vals) {
		panic("dbindex: traversal reached wrong leaf")
	}
	if write {
		v := p.Load(cur.vals[slot])
		p.Store(cur.vals[slot], v+1)
	} else {
		p.Load(cur.vals[slot])
	}
	cur.lock.Unlock(p)
}

// spanOf returns the key span covered by n.
func (t *Tree) spanOf(n *node) int {
	if len(n.children) == 0 {
		return len(n.vals)
	}
	last := n
	for len(last.children) > 0 {
		last = last.children[len(last.children)-1]
	}
	return last.lo + len(last.vals) - n.lo
}

// Validate checks that the total of all leaf values equals the number of
// writes performed (no lost updates through the lock-coupled traversal).
func (t *Tree) Validate() error {
	var want uint64
	for _, w := range t.writes {
		want += w
	}
	var got uint64
	var sum func(n *node)
	sum = func(n *node) {
		for _, c := range n.children {
			sum(c)
		}
		for _, v := range n.vals {
			got += v.V()
		}
	}
	sum(t.root)
	if got != want {
		return fmt.Errorf("dbindex: leaf sum %d, writes %d (lost updates)", got, want)
	}
	return nil
}
