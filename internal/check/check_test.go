package check

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// newChecker builds a machine + checker pair for synthetic event feeds.
func newChecker(t *testing.T, o Options) (*sim.Machine, *Checker, int32) {
	t.Helper()
	m := sim.New(sim.Small(2))
	c := Attach(m, o)
	lid := m.RegisterLockName("L")
	return m, c, lid
}

func kinds(vs []Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, string(v.Invariant))
	}
	return out
}

func TestCheckerMutualExclusion(t *testing.T) {
	m, c, lid := newChecker(t, Options{})
	m.KernelLockEvent(sim.TraceAcquire, lid, 0, -1)
	m.KernelLockEvent(sim.TraceAcquire, lid, 1, -1) // second holder
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Invariant != MutualExclusion {
		t.Fatalf("want one mutual-exclusion violation, got %v", kinds(vs))
	}
	if vs[0].Thread != 1 {
		t.Fatalf("violation blamed thread %d, want 1", vs[0].Thread)
	}
}

func TestCheckerCleanHandover(t *testing.T) {
	m, c, lid := newChecker(t, Options{})
	for tid := int32(0); tid < 4; tid++ {
		m.KernelLockEvent(sim.TraceAcquire, lid, tid, -1)
		m.KernelLockEvent(sim.TraceRelease, lid, tid, -1)
	}
	if vs := c.Finish(m.Now()); len(vs) != 0 {
		t.Fatalf("clean handover flagged: %v", kinds(vs))
	}
}

func TestCheckerConservation(t *testing.T) {
	m, c, lid := newChecker(t, Options{})
	m.KernelLockEvent(sim.TraceRelease, lid, 3, -1) // release w/o acquire
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Invariant != Conservation {
		t.Fatalf("want conservation violation, got %v", kinds(vs))
	}
}

func TestCheckerStarvation(t *testing.T) {
	m, c, lid := newChecker(t, Options{StarvationK: 3})
	// Thread 9 declares itself waiting, then is passed 4 times.
	m.KernelLockEvent(sim.TraceSpinStart, lid, 9, -1)
	for i := 0; i < 4; i++ {
		m.KernelLockEvent(sim.TraceAcquire, lid, int32(i), -1)
		m.KernelLockEvent(sim.TraceRelease, lid, int32(i), -1)
	}
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Invariant != Starvation {
		t.Fatalf("want starvation violation, got %v", kinds(vs))
	}
	if vs[0].Thread != 9 {
		t.Fatalf("starved thread = %d, want 9", vs[0].Thread)
	}
}

func TestCheckerRegistryAndEvents(t *testing.T) {
	reg := obs.NewRegistry()
	m := sim.New(sim.Small(2))
	tr := m.AttachTracer(64)
	c := Attach(m, Options{Registry: reg, EmitEvents: true})
	lid := m.RegisterLockName("L")
	m.KernelLockEvent(sim.TraceAcquire, lid, 0, -1)
	m.KernelLockEvent(sim.TraceAcquire, lid, 1, -1)
	if got := reg.Counter("check.violation." + string(MutualExclusion)).Value(); got != 1 {
		t.Fatalf("registry counter = %d, want 1", got)
	}
	found := false
	for _, e := range tr.Events() {
		if e.Kind == sim.TraceViolation && e.Next == sim.ViolationMutualExclusion {
			found = true
		}
	}
	if !found {
		t.Fatal("no TraceViolation event on the trace")
	}
	if c.Total != 1 {
		t.Fatalf("Total = %d, want 1", c.Total)
	}
}

func TestCheckerMaxViolationsCap(t *testing.T) {
	m, c, lid := newChecker(t, Options{MaxViolations: 2})
	for i := int32(1); i <= 5; i++ {
		m.KernelLockEvent(sim.TraceAcquire, lid, i, -1)
	}
	if len(c.Violations()) != 2 {
		t.Fatalf("stored %d violations, want cap 2", len(c.Violations()))
	}
	if c.Total != 4 {
		t.Fatalf("Total = %d, want 4", c.Total)
	}
}

// TestViolationCodesRoundTrip: every invariant, and the race auditor's
// data-race verdict, maps to its fixed trace code and back to its own
// name through internal/sim's one table, which is how the Perfetto
// export labels a TraceViolation instant.
func TestViolationCodesRoundTrip(t *testing.T) {
	for _, c := range []struct {
		inv  Invariant
		code int32
	}{
		{MutualExclusion, sim.ViolationMutualExclusion},
		{LostWakeup, sim.ViolationLostWakeup},
		{Starvation, sim.ViolationStarvation},
		{StalledWaiter, sim.ViolationStalledWaiter},
		{Deadlock, sim.ViolationDeadlock},
		{Conservation, sim.ViolationConservation},
		{OrphanedLock, sim.ViolationOrphanedLock},
		{"data-race", sim.ViolationDataRace},
	} {
		if got := c.inv.Code(); got != c.code {
			t.Errorf("%s.Code() = %d, want %d", c.inv, got, c.code)
		}
		if got := sim.ViolationCodeName(c.code); got != string(c.inv) {
			t.Errorf("ViolationCodeName(%d) = %q, want %q", c.code, got, c.inv)
		}
	}
	if got := Invariant("no-such-invariant").Code(); got != 0 {
		t.Errorf("unknown invariant has code %d, want 0", got)
	}
	for _, code := range []int32{0, -1, sim.ViolationOrphanedLock + 1} {
		if got := sim.ViolationCodeName(code); got != "unknown" {
			t.Errorf("ViolationCodeName(%d) = %q, want unknown", code, got)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Invariant: MutualExclusion, At: 42, Lock: 0, LockName: "L", Thread: 7, Detail: "boom"}
	s := v.String()
	for _, want := range []string{"mutual-exclusion", "t=42", "thread=7", "boom"} {
		if !strings.Contains(s, want) {
			t.Fatalf("violation string %q missing %q", s, want)
		}
	}
}
