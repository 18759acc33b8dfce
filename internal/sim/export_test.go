package sim

// RunSampled is Run with sample called on the event queue's length and
// strong length before every pop. It runs Run's own loop, so the events
// it samples are stepped exactly as in Run.
func (m *Machine) RunSampled(until Time, sample func(n, strong int)) Time {
	return m.run(until, sample)
}

// Resumes reports how many times loop has resumed a thread coroutine.
func (m *Machine) Resumes() int64 { return m.resumes }

// QueueTiers reports how the event queue's pending events split between
// its wheel and heap tiers, and whether its next pop takes the heap's
// head.
func (m *Machine) QueueTiers() (wheel, heap int, heapNext bool) { return m.eq.Tiers() }
