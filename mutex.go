package flexguard

import (
	"runtime"
	"sync/atomic"
)

// Mutex states, mirroring the paper's single-variable lock (Listing 2).
const (
	mutexUnlocked = 0
	mutexLocked   = 1
	// mutexLockedWithWaiters: at least one goroutine is blocking; the
	// holder must post a wake token when releasing.
	mutexLockedWithWaiters = 2
)

// spinBudget is the number of acquisition attempts per busy-wait leg
// before the waiter rechecks the monitor.
const spinBudget = 4096

// spinGoschedEvery bounds how long a spinning waiter runs between
// voluntary scheduling points, so spinning stays preemptible for the Go
// runtime.
const spinGoschedEvery = 64

// Failed acquisition attempts back off exponentially (in spinPause
// calls) between polls, bounded so a waiter never sleeps through a
// release for long: doubling from spinBackoffMin caps at spinBackoffMax
// within a leg and resets when a new leg starts.
const (
	spinBackoffMin = 1
	spinBackoffMax = 128
)

// spinPause burns a few cycles without touching shared memory — the
// portable stand-in for the PAUSE instruction. noinline keeps the call
// (and thus the delay loop around it) from being optimized away.
//
//go:noinline
func spinPause() {}

// Mutex is the native-Go FlexGuard lock: a single-variable lock whose
// waiters busy-wait while the NativeMonitor reports healthy scheduling and
// block (on a channel semaphore, Go's futex analogue) the moment it
// reports oversubscription. The zero value is not usable; call NewMutex.
//
// Mutex intentionally omits the simulator version's MCS queue: Go's
// runtime already multiplexes goroutines over a bounded set of Ps, so the
// cache-line convoy the queue solves on raw hardware does not manifest the
// same way; what transfers is the monitor-driven spin/block policy.
type Mutex struct {
	state atomic.Int32
	wake  chan struct{}
	mon   *NativeMonitor
	// Slow-path telemetry (see Snapshot). The fast path stays uncounted.
	slowAcquires  atomic.Int64
	spinAcquires  atomic.Int64
	blockAcquires atomic.Int64
	spinToBlock   atomic.Int64
	blockToSpin   atomic.Int64
}

// NewMutex returns a FlexGuard mutex driven by mon (nil selects the
// process-wide DefaultMonitor).
func NewMutex(mon *NativeMonitor) *Mutex {
	if mon == nil {
		mon = DefaultMonitor()
	}
	return &Mutex{
		wake: make(chan struct{}, 1),
		mon:  mon,
	}
}

// TryLock acquires the mutex if it is free.
func (m *Mutex) TryLock() bool {
	return m.state.CompareAndSwap(mutexUnlocked, mutexLocked)
}

// Lock acquires the mutex, busy-waiting in healthy conditions and
// blocking under oversubscription.
func (m *Mutex) Lock() {
	// Fast path: steal the lock if free.
	if m.TryLock() {
		return
	}
	m.slowAcquires.Add(1)
	const (
		modeNone = iota
		modeSpin
		modeBlock
	)
	mode := modeNone
	for {
		if !m.mon.Oversubscribed() {
			// Busy-waiting mode.
			if mode == modeBlock {
				m.blockToSpin.Add(1)
			}
			mode = modeSpin
			if m.spin() {
				m.spinAcquires.Add(1)
				return
			}
			continue
		}
		// Blocking mode: mark the lock and park on the wake channel
		// (Listing 2 lines 52–63, with the channel as the futex).
		if mode == modeSpin {
			m.spinToBlock.Add(1)
		}
		mode = modeBlock
		old := m.state.Swap(mutexLockedWithWaiters)
		if old == mutexUnlocked {
			m.blockAcquires.Add(1)
			return // the swap acquired the lock
		}
		<-m.wake
		old = m.state.Swap(mutexLockedWithWaiters)
		if old == mutexUnlocked {
			m.blockAcquires.Add(1)
			return
		}
		// Woken but lost the race; if the system went back to healthy,
		// restart in busy-waiting mode.
	}
}

// spin busy-waits for one leg, returning true if the lock was acquired.
// It returns false when the monitor flips to oversubscribed or the leg's
// budget is exhausted.
func (m *Mutex) spin() bool {
	backoff := spinBackoffMin
	for i := 0; i < spinBudget; i++ {
		if m.state.Load() == mutexUnlocked && m.TryLock() {
			return true
		}
		// Failed attempt: back off before re-polling so contending
		// waiters stop hammering the lock's cache line at full rate.
		for p := 0; p < backoff; p++ {
			spinPause()
		}
		if backoff < spinBackoffMax {
			backoff <<= 1
		}
		if i%spinGoschedEvery == spinGoschedEvery-1 {
			runtime.Gosched()
			if m.mon.Oversubscribed() {
				return false
			}
		}
	}
	return false
}

// Unlock releases the mutex, waking one blocked waiter if any marked the
// lock.
func (m *Mutex) Unlock() {
	old := m.state.Swap(mutexUnlocked)
	switch old {
	case mutexLocked:
	case mutexLockedWithWaiters:
		// Non-blocking post: the buffer holds at most one token, and a
		// pending token means a wake is already in flight.
		select {
		case m.wake <- struct{}{}:
		default:
		}
	default:
		panic("flexguard: Unlock of unlocked Mutex")
	}
}
