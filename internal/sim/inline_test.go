package sim_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads/sharedmem"
)

// idleInjector is a fault injector that never perturbs anything.
type idleInjector struct{}

func (idleInjector) SliceGrant(_ *sim.Thread, slice sim.Time) sim.Time { return slice }
func (idleInjector) PreemptAtBoundary(*sim.Thread) bool                { return false }
func (idleInjector) WakeDelay(_ *sim.Thread, lat sim.Time) sim.Time    { return lat }
func (idleInjector) SpuriousWakeDelay(*sim.Thread) sim.Time            { return 0 }

// TestInjectedInlineBatching pins that an attached fault injector leaves
// the thread-side inline fast path on: the instruction-boundary seams run
// on whichever side executed the op, so a sharedmem cell with an injector
// that never fires takes exactly as many coroutine resumes as the same
// cell without one, and the same event stream. Switching the fast path
// off under injection would route every inlinable op through the machine
// side at two coroutine switches apiece.
func TestInjectedInlineBatching(t *testing.T) {
	const (
		threads = 8
		dur     = sim.Time(3_000_000)
	)
	type run struct {
		digest          uint64
		events, resumes int64
	}
	cell := func(alg string, fi sim.FaultInjector) run {
		cfg := sim.Small(4)
		cfg.Seed = 1
		e, err := harness.NewEnv(harness.EnvOptions{Config: cfg, Alg: alg})
		if err != nil {
			t.Fatal(err)
		}
		tr := e.M.AttachTracer(256)
		e.M.SetFaultInjector(fi)
		sharedmem.Build(e.M, sharedmem.Options{Threads: threads, Deadline: dur, NewLock: e.NewLock})
		e.M.Run(dur + dur/4)
		return run{tr.Digest(), tr.Seen, e.M.Resumes()}
	}
	for _, alg := range []string{"blocking", "mcs", "flexguard"} {
		bare, injected := cell(alg, nil), cell(alg, idleInjector{})
		t.Logf("%s: %d events, %d resumes bare, %d injected", alg, bare.events, bare.resumes, injected.resumes)
		if injected != bare {
			t.Errorf("%s: injected run %+v, want %+v (the bare run)", alg, injected, bare)
		}
	}
}
