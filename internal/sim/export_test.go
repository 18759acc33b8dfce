package sim

// RunSampled is Run with sample called on the event queue's length and
// strong length before every pop. It steps events exactly as loop does;
// tests that use it pin the equivalence by comparing the trace digest
// with a plain Run of the same cell.
func (m *Machine) RunSampled(until Time, sample func(n, strong int)) Time {
	if m.finished {
		panic("sim: Run called twice")
	}
	m.running = true
	m.horizon = until
	m.drained = false
	for {
		sample(m.eq.Len(), m.eq.StrongLen())
		if m.eq.StrongLen() == 0 {
			m.drained = true
			break
		}
		ev := m.eq.Pop()
		if ev.At >= until {
			m.clock = until
			break
		}
		m.clock = ev.At
		m.firing = ev
		ev.Fn()
		m.firing = nil
		m.eq.Recycle(ev)
	}
	quiesced := m.clock
	if m.clock < until {
		m.clock = until
	}
	m.shutdown()
	m.running = false
	m.finished = true
	return quiesced
}

// Resumes reports how many times step has resumed a thread coroutine.
func (m *Machine) Resumes() int64 { return m.resumes }
