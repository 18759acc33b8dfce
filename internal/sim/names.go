package sim

import "strconv"

// Names. Every word and lock carries a debug name, but only reports read
// one: a deadlock dump, a race verdict, a lock's metrics row. So a word
// handle holds no name. Each naming call (NewWord, NewWords, NewWordAt,
// NewWordsAt, NewLockWord, NewLockWordAt) names the words it allocates
// in the machine's name table, in parts that WordName formats on
// demand, and a call that continues the pattern of a recent one extends
// that entry instead of adding its own (see nameRun). A bulk builder's
// loop naming its i-th element base+i+suffix, or its i-th lock's words
// after the lock, thus formats, allocates and records nothing per
// element: each name is derived from the element's index when a report
// asks for it.

// nameRun is one entry of the name table: the words of count naming
// calls that share base, suffix and width (words per call), each call
// allocating its words period ids after the previous one's, with lock
// and index (each where set) one more than in the call before. Element
// k of the run is words start+k*period up to +width, named the name of
// lock lock+k (when lock >= 0), base, index+k in decimal (when index >=
// 0), then suffix.
type nameRun struct {
	base, suffix  string
	start, period int32
	width, count  int32
	lock, index   int32
}

// nameWindow is how many of the latest runs a naming call may extend: a
// bulk builder's loop body names a handful of words per element, and a
// lock constructor one to three.
const nameWindow = 8

// name records call c (base, suffix, width, lock and index set) as the
// name of the words allocated next. A call allocating no words names
// none.
func (m *Machine) name(c nameRun) {
	if c.width == 0 {
		return
	}
	c.start, c.count = m.nextWord, 1
	for i := len(m.names) - 1; i >= max(0, len(m.names)-nameWindow); i-- {
		if m.names[i].extend(&c) {
			return
		}
	}
	m.names = append(roomFor(m.names, 1), c)
}

// extend adds call c to run r if c continues r's pattern.
func (r *nameRun) extend(c *nameRun) bool {
	if c.width != r.width || !continues(r.lock, c.lock, r.count) ||
		!continues(r.index, c.index, r.count) || c.base != r.base || c.suffix != r.suffix {
		return false
	}
	if r.count == 1 {
		r.period = c.start - r.start
	} else if c.start != r.start+r.count*r.period {
		return false
	}
	r.count++
	return true
}

// continues reports whether v, a call's lock or index, continues a run
// of n calls whose first had v0: both unset, or v is v0+n.
func continues(v0, v, n int32) bool {
	if v0 < 0 {
		return v < 0
	}
	return v == v0+n
}

// element returns which element of r word id belongs to, if any.
func (r *nameRun) element(id int32) (int32, bool) {
	off := id - r.start
	if off < 0 {
		return 0, false
	}
	k := int32(0)
	if r.count > 1 {
		k, off = off/r.period, off%r.period
	}
	return k, k < r.count && off < r.width
}

// NewWord allocates a Word on its own cache line.
func (m *Machine) NewWord(name string, init uint64) *Word {
	return m.newWord(nameRun{base: name, width: 1, lock: -1, index: -1}, init)
}

// NewWords allocates n Words that share a single cache line (for modeling
// false/true sharing, e.g. the two cache lines touched by the
// shared-memory-access microbenchmark's critical section), all named
// name. The line is allocated with the first word, so n == 0 allocates
// none.
func (m *Machine) NewWords(name string, n int) []*Word {
	return m.newWords(nameRun{base: name, width: int32(n), lock: -1, index: -1}, n)
}

// NewWordAt is NewWord for the i-th element (i >= 0) of a bulk
// structure: the word is named base, i in decimal, then suffix
// ("dd.s5.count"), and nothing is formatted until a report asks for the
// name.
func (m *Machine) NewWordAt(base string, i int, suffix string, init uint64) *Word {
	return m.newWord(nameRun{base: base, suffix: suffix, width: 1, lock: -1, index: int32(i)}, init)
}

// NewWordsAt is NewWords named as NewWordAt names a word.
func (m *Machine) NewWordsAt(base string, i int, suffix string, n int) []*Word {
	return m.newWords(nameRun{base: base, suffix: suffix, width: int32(n), lock: -1, index: int32(i)}, n)
}

// NewLockWord allocates a Word on its own cache line for lock lid (from
// RegisterLockName), named the lock's name then suffix ("dd.s5.val").
func (m *Machine) NewLockWord(lid int32, suffix string, init uint64) *Word {
	return m.newWord(nameRun{base: suffix, width: 1, lock: lid, index: -1}, init)
}

// NewLockWordAt allocates a Word on its own cache line for the i-th
// (i >= 0) queue node of lock lid, named the lock's name, base, i in
// decimal, then suffix ("shm.n3.locked").
func (m *Machine) NewLockWordAt(lid int32, base string, i int, suffix string, init uint64) *Word {
	return m.newWord(nameRun{base: base, suffix: suffix, width: 1, lock: lid, index: int32(i)}, init)
}

// WordName returns the name of word id (see Word.ID), or "" if the
// machine has no such word. It searches and formats, so call it to
// report, not per access.
func (m *Machine) WordName(id int32) string {
	if id < 0 || id >= m.nextWord {
		return ""
	}
	// Runs interleave, so the one holding id need not be the latest to
	// start at or before it; exactly one holds it.
	for i := len(m.names) - 1; i >= 0; i-- {
		r := &m.names[i]
		if k, ok := r.element(id); ok {
			var b []byte
			if r.lock >= 0 {
				b = append(b, m.LockName(r.lock+k)...)
			}
			b = append(b, r.base...)
			if r.index >= 0 {
				b = strconv.AppendInt(b, int64(r.index+k), 10)
			}
			return string(append(b, r.suffix...))
		}
	}
	return ""
}

// IndexedName returns base then i in decimal ("dd.s5"), in one
// allocation: the name a bulk builder gives its i-th lock. (Lock names
// are strings because every lock constructor takes one; the lock's own
// words then take NewLockWord and format nothing.)
func IndexedName(base string, i int) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], base...), int64(i), 10))
}

// RegisterLockName assigns the next dense lock id to name. Lock
// implementations call it once at construction; the id tags every lock
// event the instance emits and names the lock's words (NewLockWord).
func (m *Machine) RegisterLockName(name string) int32 {
	m.lockNames = append(roomFor(m.lockNames, 1), name)
	return int32(len(m.lockNames) - 1)
}

// LockName resolves a lock id from RegisterLockName ("" if out of range,
// e.g. the -1 id of system-wide events).
func (m *Machine) LockName(id int32) string {
	if id < 0 || int(id) >= len(m.lockNames) {
		return ""
	}
	return m.lockNames[id]
}
