// Package hackbench reimplements the scheduler stress test of §5.4 used
// to measure Preemption Monitor overhead: groups of sender/receiver pairs
// exchange messages through futex-backed pipes, so threads block and wake
// constantly and every block/wake drives the sched_switch tracepoint. The
// experiment compares total runtime with the monitor's hook attached
// versus detached.
package hackbench

import (
	"fmt"

	"repro/internal/sim"
)

// sem is a futex-based counting semaphore (the pipe's item/slot counts).
type sem struct {
	w *sim.Word
}

func newSem(m *sim.Machine, name string, init uint64) *sem {
	return &sem{w: m.NewWord(name, init)}
}

// acquire decrements the semaphore, blocking at zero.
func (s *sem) acquire(p *sim.Proc) {
	for {
		v := p.Load(s.w)
		if v > 0 {
			if p.CAS(s.w, v, v-1) == v {
				return
			}
			continue
		}
		p.FutexWait(s.w, 0)
	}
}

// release increments the semaphore and wakes one waiter.
func (s *sem) release(p *sim.Proc) {
	p.Add(s.w, 1)
	p.FutexWake(s.w, 1)
}

// pipe is a bounded message channel: slots/items semaphores plus a data
// cache line (the copied payload).
type pipe struct {
	slots *sem
	items *sem
	data  *sim.Word
}

// Options configures the run. The paper uses 26 groups × 25 fds (650
// threads) × 10000 messages of 512 bytes; defaults here are scaled down
// and overridable.
type Options struct {
	Groups   int // default 8
	Pairs    int // sender/receiver pairs per group, default 10
	Messages int // messages per pair, default 200
}

const (
	copyTicks sim.Time = 150 // copying one 512-byte message
	pipeCap            = 16  // pipe capacity in messages
)

// Workload is a built hackbench instance: its senders and receivers are
// spawned, and the caller runs the machine until it quiesces, at the
// time the last message was delivered.
type Workload struct {
	Threads  int
	Messages int
	received *sim.Word
}

// Build builds the pipes and spawns all senders and receivers on m.
func Build(m *sim.Machine, o Options) *Workload {
	if o.Groups == 0 {
		o.Groups = 8
	}
	if o.Pairs == 0 {
		o.Pairs = 10
	}
	if o.Messages == 0 {
		o.Messages = 200
	}
	received := m.NewWord("hb.received", 0)
	nPipes := o.Groups * o.Pairs
	for g := 0; g < o.Groups; g++ {
		for pr := 0; pr < o.Pairs; pr++ {
			name := fmt.Sprintf("hb.g%d.p%d", g, pr)
			pp := &pipe{
				slots: newSem(m, name+".slots", pipeCap),
				items: newSem(m, name+".items", 0),
				data:  m.NewWord(name+".data", 0),
			}
			msgs := o.Messages
			m.Spawn(name+".send", func(p *sim.Proc) {
				for k := 0; k < msgs; k++ {
					pp.slots.acquire(p)
					p.Compute(copyTicks)
					p.Store(pp.data, uint64(k))
					pp.items.release(p)
				}
			})
			m.Spawn(name+".recv", func(p *sim.Proc) {
				for k := 0; k < msgs; k++ {
					pp.items.acquire(p)
					p.Load(pp.data)
					p.Compute(copyTicks)
					pp.slots.release(p)
					p.Add(received, 1)
					p.CountOp()
				}
			})
		}
	}
	return &Workload{Threads: 2 * nPipes, Messages: nPipes * o.Messages, received: received}
}

// Validate reports an error unless every message was delivered.
func (w *Workload) Validate() error {
	if n := w.received.V(); n != uint64(w.Messages) {
		return fmt.Errorf("hackbench: %d of %d messages delivered", n, w.Messages)
	}
	return nil
}
