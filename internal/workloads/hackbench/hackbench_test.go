package hackbench

import (
	"testing"

	"repro/internal/monitor"
	"repro/internal/sim"
)

// run builds o on m and runs the machine until every message is
// delivered, returning the build and the quiesce time.
func run(m *sim.Machine, o Options) (*Workload, sim.Time) {
	b := Build(m, o)
	return b, m.Run(1 << 40)
}

func TestAllMessagesDelivered(t *testing.T) {
	cfg := sim.Small(4)
	cfg.Seed = 1
	b, runtime := run(sim.New(cfg), Options{Groups: 2, Pairs: 3, Messages: 50})
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Threads != 12 {
		t.Fatalf("threads %d, want 12", b.Threads)
	}
	if runtime <= 0 {
		t.Fatal("nonpositive runtime")
	}
}

func TestOversubscribedDelivery(t *testing.T) {
	cfg := sim.Small(2)
	cfg.Seed = 3
	b, _ := run(sim.New(cfg), Options{Groups: 4, Pairs: 4, Messages: 40})
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorOverheadSmall(t *testing.T) {
	// §5.4: with a hook cost configured, monitor-on runtime must exceed
	// monitor-off by only a small fraction.
	measure := func(withMonitor bool) sim.Time {
		cfg := sim.Small(4)
		cfg.Seed = 7
		cfg.Costs.HookCost = 60
		m := sim.New(cfg)
		if withMonitor {
			monitor.Attach(m)
		}
		b, runtime := run(m, Options{Groups: 3, Pairs: 4, Messages: 60})
		if err := b.Validate(); err != nil {
			t.Fatalf("monitor=%v: %v", withMonitor, err)
		}
		return runtime
	}
	off := measure(false)
	on := measure(true)
	overhead := float64(on-off) / float64(off)
	if overhead > 0.05 {
		t.Fatalf("monitor overhead %.1f%% on hackbench, want small", overhead*100)
	}
}
