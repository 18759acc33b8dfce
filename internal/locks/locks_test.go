package locks

import (
	"testing"

	"repro/internal/sim"
)

// RunMutex exercises lock l on machine m with nThreads doing non-atomic
// read-modify-write increments under the lock, and returns (counter,
// completed CSs, per-thread ops). Threads stop acquiring at 2/3 of the
// horizon and exit cleanly, so at the end every started critical section
// has completed and the counter must match the tally exactly. Exported
// for the catalog tests in package locks_test.
func RunMutex(m *sim.Machine, l Lock, nThreads int, horizon sim.Time) (uint64, uint64, []int64) {
	ctr := m.NewWord("ctr", 0)
	deadline := horizon * 2 / 3
	done := make([]uint64, nThreads)
	for i := 0; i < nThreads; i++ {
		i := i
		m.Spawn("worker", func(p *sim.Proc) {
			for p.Now() < deadline {
				l.Lock(p)
				v := p.Load(ctr)
				p.Compute(100)
				p.Store(ctr, v+1)
				l.Unlock(p)
				done[i]++
				p.CountOp()
				p.Compute(50)
			}
		})
	}
	m.Run(horizon)
	var total uint64
	ops := make([]int64, nThreads)
	for i, d := range done {
		total += d
		ops[i] = int64(d)
	}
	return ctr.V(), total, ops
}

func newMachine(ncpu int, seed uint64) (*sim.Machine, *Shared) {
	cfg := sim.Small(ncpu)
	cfg.Seed = seed
	m := sim.New(cfg)
	return m, NewShared(m)
}

func TestTicketIsFIFO(t *testing.T) {
	// With one CPU and staggered arrival, grants must follow ticket order.
	m, _ := newMachine(4, 2)
	l := NewTicket(m, "L")
	var order []int
	hold := m.NewWord("hold", 0)
	for i := 0; i < 3; i++ {
		i := i
		m.Spawn("w", func(p *sim.Proc) {
			p.Compute(sim.Time(2000 * (i + 1)))
			l.Lock(p)
			order = append(order, i)
			p.Compute(30_000)
			l.Unlock(p)
		})
	}
	_ = hold
	m.Run(50_000_000)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("ticket order %v, want [0 1 2]", order)
	}
}

func TestMCSHandoverLocality(t *testing.T) {
	// MCS waiters spin on their own nodes: with two waiters, the lock word
	// (tail) should see far fewer atomics than a TAS lock would generate.
	// We check behaviourally: heavy contention still completes and spin
	// iterations are attributed.
	m, _ := newMachine(4, 9)
	l := NewMCS(m, "L")
	got, want, _ := RunMutex(m, l, 4, 10_000_000)
	if got != want || want == 0 {
		t.Fatalf("mcs contended run broken: %d vs %d", got, want)
	}
	var spins int64
	for _, th := range m.Threads() {
		spins += th.SpinIters
	}
	if spins == 0 {
		t.Fatal("contended MCS should record spin iterations")
	}
}

func TestBlockingParksWaiters(t *testing.T) {
	// The pure blocking lock must actually block: under contention, no
	// meaningful spinning should be recorded.
	m, _ := newMachine(4, 11)
	l := NewBlocking(m, "L")
	_, want, _ := RunMutex(m, l, 4, 10_000_000)
	if want == 0 {
		t.Fatal("no progress")
	}
	var spins int64
	for _, th := range m.Threads() {
		spins += th.SpinIters
	}
	if spins > 0 {
		t.Fatalf("pure blocking lock spun %d iterations", spins)
	}
}

func TestPosixSpinsThenParks(t *testing.T) {
	// POSIX must spin a bounded amount and park beyond it: spin iterations
	// exist but stay bounded per acquisition.
	m, _ := newMachine(4, 13)
	l := NewPosix(m, "L")
	_, want, _ := RunMutex(m, l, 4, 10_000_000)
	if want == 0 {
		t.Fatal("no progress")
	}
	var spins int64
	for _, th := range m.Threads() {
		spins += th.SpinIters
	}
	if spins == 0 {
		t.Fatal("adaptive mutex should spin some")
	}
	perCS := float64(spins) / float64(want)
	if perCS > posixSpin*4 {
		t.Fatalf("POSIX spun %.0f iters/CS, budget is ~%d", perCS, posixSpin)
	}
}

func TestMalthusianCullsToPassive(t *testing.T) {
	// With many waiters, culling must happen (passive list used) and
	// the lock must still be live.
	m, _ := newMachine(4, 15)
	ml := NewMalthusian(m, "L")
	got, want, _ := RunMutex(m, ml, 8, 20_000_000)
	if got != want || want == 0 {
		t.Fatalf("malthusian broken: %d vs %d", got, want)
	}
}

func TestShuffleGlobalNodeAcrossLocks(t *testing.T) {
	// One global node per thread across many Shuffle locks.
	m, s := newMachine(4, 17)
	la := NewShuffle(s, "A")
	lb := NewShuffle(s, "B")
	ctrA := m.NewWord("a", 0)
	ctrB := m.NewWord("b", 0)
	done := make([]uint64, 6)
	for i := 0; i < 6; i++ {
		i := i
		m.Spawn("w", func(p *sim.Proc) {
			for p.Now() < 14_000_000 {
				la.Lock(p)
				v := p.Load(ctrA)
				p.Compute(40)
				p.Store(ctrA, v+1)
				la.Unlock(p)
				lb.Lock(p)
				v = p.Load(ctrB)
				p.Compute(40)
				p.Store(ctrB, v+1)
				lb.Unlock(p)
				done[i]++
			}
		})
	}
	m.Run(20_000_000)
	var total uint64
	for _, d := range done {
		total += d
	}
	if ctrA.V() != total || ctrB.V() != total {
		t.Fatalf("lost updates: a=%d b=%d want %d", ctrA.V(), ctrB.V(), total)
	}
}

func TestUSCLFairness(t *testing.T) {
	// u-SCL's whole point: ops spread evenly across threads even when CS
	// lengths differ (here: uniform CS, check spread is tight).
	m, _ := newMachine(2, 19)
	l := NewUSCL(m, "L")
	_, want, ops := RunMutex(m, l, 4, 60_000_000)
	if want == 0 {
		t.Fatal("no progress")
	}
	var min, max int64 = ops[0], ops[0]
	for _, o := range ops {
		if o < min {
			min = o
		}
		if o > max {
			max = o
		}
	}
	if min == 0 || float64(max) > float64(min)*3 {
		t.Fatalf("u-SCL unfair: %v", ops)
	}
}

func TestMCSTPRemovesStaleWaiters(t *testing.T) {
	// Oversubscribed MCS-TP must keep making progress by skipping
	// preempted waiters.
	m, s := newMachine(1, 21)
	l := NewMCSTP(s, "L")
	got, want, _ := RunMutex(m, l, 5, 40_000_000)
	if got != want || want == 0 {
		t.Fatalf("mcstp broken: %d vs %d", got, want)
	}
}

func TestSpinExtSetsFlagOnlyInCS(t *testing.T) {
	cfg := sim.Small(2)
	cfg.Seed = 23
	cfg.Costs.SliceExt = 5_000
	m := sim.New(cfg)
	l := NewSpinExt(m, "L")
	got, want, _ := RunMutex(m, l, 6, 15_000_000)
	if got != want || want == 0 {
		t.Fatalf("spin-ext broken: %d vs %d", got, want)
	}
}

func TestCLHIsFIFO(t *testing.T) {
	// Staggered arrival on spare CPUs: CLH must grant in arrival order.
	m, _ := newMachine(8, 25)
	l := NewCLH(m, "L")
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		m.Spawn("w", func(p *sim.Proc) {
			p.Compute(sim.Time(3000 * (i + 1)))
			l.Lock(p)
			order = append(order, i)
			p.Compute(40_000)
			l.Unlock(p)
		})
	}
	m.Run(100_000_000)
	for i := range order {
		if order[i] != i {
			t.Fatalf("CLH grant order %v, want arrival order", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("only %d grants", len(order))
	}
}

func TestCLHNodeRotation(t *testing.T) {
	// The same two threads alternating many times exercises the CLH
	// node-adoption rotation; any mix-up deadlocks or loses updates.
	m, _ := newMachine(2, 27)
	l := NewCLH(m, "L")
	got, want, _ := RunMutex(m, l, 2, 10_000_000)
	if got != want || want == 0 {
		t.Fatalf("CLH rotation broken: %d vs %d", got, want)
	}
}
