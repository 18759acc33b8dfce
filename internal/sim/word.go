package sim

import "slices"

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
// the GC scan set.

// Word handles are handed out from slabs rather than allocated one by
// one. A slab holds as many handles as the machine already has words,
// clamped to [wordSlabMin, wordSlabMax], so slabs double from a small
// first one: a machine with a few dozen words allocates a few small
// slabs, and one with a hundred thousand allocates one per wordSlabMax
// words. A handle holds no pointer, so the slabs are never scanned by
// the garbage collector.
const (
	wordSlabMin = 8
	wordSlabMax = 256
)

// roomFor returns s with room for n more elements, doubling its capacity
// when short. append grows a large slice by about 1.25x, so a table that
// a build fills one element at a time (the line arrays, the name tables)
// would allocate about five times its final size.
func roomFor[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), n, 16))
}

// newLine allocates a cache line and returns its dense id.
func (m *Machine) newLine() int32 {
	id := int32(len(m.lineOwner))
	m.lineOwner = append(roomFor(m.lineOwner, 1), ownerNone)
	m.lineSharers = roomFor(m.lineSharers, int(m.lineStride))
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
// A Word is a handle that lives in a machine-owned slab, at a stable
// address, and holds its value. Its coherence state lives in the
// machine's line arrays, its name in the machine's name table (see
// WordName) and, once it is spun on, its spinners in the machine's
// watch table, each indexed by a dense id. The handle holds no pointer,
// string or slice, so it costs 24 bytes and the garbage collector
// nothing. Outside internal/sim the Word API is the only way in: the
// fields and the backing arrays are unexported.
type Word struct {
	v      uint64 // the word's value
	lineID int32  // dense cache-line id in the machine's line arrays
	id     int32  // dense per-machine allocation index (see Word.ID)
	// watch indexes the word's list of live spinners (Proc.SpinOn) in
	// Machine.watchers; 0 until a spinner first watches the word. A
	// store to the word re-evaluates only these; see checkSpinners.
	watch int32
}

// V returns the current raw value without cost accounting. Use only from
// spin conditions, kernel-side hooks, or post-run inspection.
func (w *Word) V() uint64 { return w.v }

// ID returns the word's dense allocation index on its machine. Observers
// key per-word state by it (the race auditor's tables), and
// Machine.WordName resolves it to the word's name.
func (w *Word) ID() int32 { return w.id }

// handle allocates the next word id on line, holding init, and returns
// its handle from the next free slot of the machine's word slab.
func (m *Machine) handle(line int32, init uint64) *Word {
	id := m.nextWord
	m.nextWord++
	if len(m.wordSlab) == 0 {
		m.wordSlab = make([]Word, min(max(int(id), wordSlabMin), wordSlabMax))
	}
	h := &m.wordSlab[0]
	*h = Word{v: init, lineID: line, id: id}
	m.wordSlab = m.wordSlab[1:]
	return h
}

// newWord allocates a Word on its own cache line, named by call nm.
func (m *Machine) newWord(nm nameRun, init uint64) *Word {
	m.name(nm)
	return m.handle(m.newLine(), init)
}

// newWords allocates n Words that share a single cache line, all named
// by call nm. The line is allocated with the first word, so n == 0
// allocates none.
func (m *Machine) newWords(nm nameRun, n int) []*Word {
	m.name(nm)
	ws := make([]*Word, n)
	line := int32(-1)
	for i := range ws {
		if line < 0 {
			line = m.newLine()
		}
		ws[i] = m.handle(line, 0)
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
	old := w.v
	w.v = v
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
	old := w.v
	w.v = uint64(int64(old) + delta)
	m.lineOwner[w.lineID] = ownerKernel
	m.clearSharers(w.lineID)
	if m.mem != nil {
		m.memAccess(MemKernel, ownerKernel, w, old, w.v, true, false)
	}
	m.checkSpinners(w)
	return w.v
}
