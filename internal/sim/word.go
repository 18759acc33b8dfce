package sim

// ownerNone marks a cache line not exclusively held by any context;
// ownerKernel marks a line last written by kernel-side code (tracepoint
// handlers), which invalidates all user-space copies.
const (
	ownerNone   int32 = -1
	ownerKernel int32 = -2
)

// Cache-coherence state lives in machine-owned structure-of-arrays
// slices indexed by dense line id rather than in per-Word heap objects:
// the owner array and the sharer bitmaps are the hottest state in the
// cost model (every load/store/RMW reads and writes them), and packing
// them keeps the step loop off pointer-chased cache lines and out of
// the GC scan set. It also makes machine snapshots a bulk array copy.

// valChunk is the word-value arena chunk size. Values are allocated in
// fixed-size chunks so existing *uint64 slots never move on growth.
const valChunk = 256

// Word handles are handed out from slabs rather than allocated one by
// one. A slab holds as many handles as the machine already has words,
// clamped to [wordSlabMin, wordSlabMax], so slabs double from a small
// first one: a machine with a few dozen words allocates a few small
// slabs, and one with a hundred thousand allocates one per wordSlabMax
// words.
const (
	wordSlabMin = 8
	wordSlabMax = valChunk
)

// newLine allocates a cache line and returns its dense id.
func (m *Machine) newLine() int32 {
	id := int32(len(m.lineOwner))
	m.lineOwner = append(m.lineOwner, ownerNone)
	for i := int32(0); i < m.lineStride; i++ {
		m.lineSharers = append(m.lineSharers, 0)
	}
	return id
}

// sharers returns line's sharer bitmap (lineStride words over contexts).
func (m *Machine) sharers(line int32) []uint64 {
	base := line * m.lineStride
	return m.lineSharers[base : base+m.lineStride]
}

func (m *Machine) hasSharer(line int32, cpu int) bool {
	return m.lineSharers[line*m.lineStride+int32(cpu/64)]&(1<<uint(cpu%64)) != 0
}

func (m *Machine) addSharer(line int32, cpu int) {
	m.lineSharers[line*m.lineStride+int32(cpu/64)] |= 1 << uint(cpu%64)
}

func (m *Machine) clearSharers(line int32) {
	s := m.sharers(line)
	for i := range s {
		s[i] = 0
	}
}

func (m *Machine) onlySharerIs(line int32, cpu int) bool {
	for i, w := range m.sharers(line) {
		mask := uint64(0)
		if cpu/64 == i {
			mask = 1 << uint(cpu%64)
		}
		if w&^mask != 0 {
			return false
		}
	}
	return true
}

// Word is a 64-bit simulated memory location. All contended state in the
// lock algorithms and workloads lives in Words so that the cache cost model
// applies. Reads of the raw value via V are free and are used by spin
// conditions and kernel-side (tracepoint) code; thread code pays costs by
// going through Proc.Load/Store/CAS/Xchg/Add.
//
// A Word is a handle: its value lives in the machine's chunked value
// arena (w.p points at the slot, stable for the Word's lifetime) and
// its coherence state in the machine's line arrays, both indexed by the
// dense allocation ids. Outside internal/sim the Word API is the only
// way in: the backing arrays are unexported Machine fields.
type Word struct {
	p      *uint64 // value slot in the machine's arena
	lineID int32   // dense cache-line id in the machine's line arrays
	id     int32   // dense per-machine allocation index (see Word.ID)
	name   string

	// watchers are the live scoped spinners (Proc.SpinOn) polling this
	// word, by thread id, in registration order. A store to the word
	// re-evaluates only these plus the machine's unscoped spinners; see
	// checkSpinners.
	watchers []int32
}

// V returns the current raw value without cost accounting. Use only from
// spin conditions, kernel-side hooks, or post-run inspection.
func (w *Word) V() uint64 { return *w.p }

// Name returns the debug name given at allocation.
func (w *Word) Name() string { return w.name }

// ID returns the word's dense allocation index on its machine. IDs make
// Word-access events serializable (trace recording and offline replay
// through the race auditor key words by ID, not pointer).
func (w *Word) ID() int32 { return w.id }

// newSlot allocates the value slot for word id, growing the arena by
// whole chunks so existing slots never move.
func (m *Machine) newSlot(id int32, init uint64) *uint64 {
	ci, off := int(id)/valChunk, int(id)%valChunk
	if ci == len(m.valChunks) {
		m.valChunks = append(m.valChunks, make([]uint64, valChunk))
	}
	p := &m.valChunks[ci][off]
	*p = init
	return p
}

// slot returns the existing value slot for word id.
func (m *Machine) slot(id int32) *uint64 {
	return &m.valChunks[int(id)/valChunk][int(id)%valChunk]
}

// handle places w in the next free slot of the machine's word slab and
// returns the stable handle.
func (m *Machine) handle(w Word) *Word {
	if len(m.wordSlab) == 0 {
		m.wordSlab = make([]Word, min(max(len(m.words), wordSlabMin), wordSlabMax))
	}
	h := &m.wordSlab[0]
	*h = w
	m.wordSlab = m.wordSlab[1:]
	return h
}

// adopt resolves word id against the snapshot being replayed: the value
// slot and line id come from the snapshot (the warmed state), and the
// name is asserted so a construction replay that diverges from the
// snapshotted machine fails loudly instead of silently mismapping words.
func (m *Machine) adopt(id int32, name string) *Word {
	if name != m.adoptName[id] {
		panic("sim: snapshot replay diverged: word " + name + " allocated where " + m.adoptName[id] + " was snapshotted")
	}
	return m.handle(Word{p: m.slot(id), lineID: m.adoptLine[id], name: name, id: id})
}

// NewWord allocates a Word on its own cache line. On a cloned machine,
// allocations replaying the snapshotted prefix adopt the snapshot's
// value and coherence state instead (see Machine.Clone).
func (m *Machine) NewWord(name string, init uint64) *Word {
	id := m.nextWord
	m.nextWord++
	var w *Word
	if int(id) < m.adoptWords {
		w = m.adopt(id, name)
	} else {
		w = m.handle(Word{p: m.newSlot(id, init), lineID: m.newLine(), name: name, id: id})
	}
	m.words = append(m.words, w)
	return w
}

// NewWords allocates n Words that share a single cache line (for modeling
// false/true sharing, e.g. the two cache lines touched by the
// shared-memory-access microbenchmark's critical section).
func (m *Machine) NewWords(name string, n int) []*Word {
	line := int32(-1)
	ws := make([]*Word, n)
	for i := range ws {
		id := m.nextWord
		m.nextWord++
		if int(id) < m.adoptWords {
			ws[i] = m.adopt(id, name)
		} else {
			if line < 0 {
				line = m.newLine()
			}
			ws[i] = m.handle(Word{p: m.newSlot(id, 0), lineID: line, name: name, id: id})
		}
		m.words = append(m.words, ws[i])
	}
	return ws
}

// loadCost computes the cost of a load by cpu and updates sharer state.
func (m *Machine) loadCost(cpu int, w *Word) Time {
	l := w.lineID
	if m.lineOwner[l] == int32(cpu) || m.hasSharer(l, cpu) {
		return m.cfg.Costs.LoadHit
	}
	m.addSharer(l, cpu)
	if m.lineOwner[l] == ownerKernel {
		m.lineOwner[l] = ownerNone
	}
	return m.cfg.Costs.LoadRemote
}

// rmwCost computes the cost of a store or atomic RMW by cpu and takes
// exclusive ownership of the line.
func (m *Machine) rmwCost(cpu int, w *Word, atomic bool) Time {
	l := w.lineID
	local := m.lineOwner[l] == int32(cpu) && m.onlySharerIs(l, cpu)
	m.lineOwner[l] = int32(cpu)
	m.clearSharers(l)
	m.addSharer(l, cpu)
	c := &m.cfg.Costs
	switch {
	case atomic && local:
		return c.AtomicLocal
	case atomic:
		return c.AtomicRemote
	case local:
		return c.StoreHit
	default:
		return c.StoreRemote
	}
}

// KernelStore writes w from kernel-side code (a sched_switch hook),
// invalidating user-space copies and re-evaluating spin conditions. It
// charges no thread cost: hook cost is charged via Costs.HookCost.
func (m *Machine) KernelStore(w *Word, v uint64) {
	old := *w.p
	*w.p = v
	m.lineOwner[w.lineID] = ownerKernel
	m.clearSharers(w.lineID)
	if m.mem != nil {
		m.memAccess(MemKernel, ownerKernel, w, old, v, true, false)
	}
	m.checkSpinners(w)
}

// KernelAdd adds delta to w from kernel-side code and returns the new
// value. See KernelStore.
func (m *Machine) KernelAdd(w *Word, delta int64) uint64 {
	old := *w.p
	*w.p = uint64(int64(old) + delta)
	m.lineOwner[w.lineID] = ownerKernel
	m.clearSharers(w.lineID)
	if m.mem != nil {
		m.memAccess(MemKernel, ownerKernel, w, old, *w.p, true, false)
	}
	m.checkSpinners(w)
	return *w.p
}
