package sim_test

import (
	"testing"

	"repro/internal/sim"
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
// that never fires takes exactly as many coroutine resumes and switches
// as the same cell without one, and the same event stream. Switching the fast path
// off under injection would give every inlinable op an event and a
// coroutine resume.
func TestInjectedInlineBatching(t *testing.T) {
	for _, alg := range []string{"blocking", "mcs", "flexguard"} {
		bare, injected := smallShape.run(t, alg, nil), smallShape.run(t, alg, idleInjector{})
		t.Logf("%s: %d events, %d resumes bare, %d injected", alg, bare.events, bare.resumes, injected.resumes)
		if injected != bare {
			t.Errorf("%s: injected run %+v, want %+v (the bare run)", alg, injected, bare)
		}
	}
}
