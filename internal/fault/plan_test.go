package fault

import (
	"strings"
	"testing"
)

// TestPlanStringRoundTrip: every preset survives String -> ParsePlan.
func TestPlanStringRoundTrip(t *testing.T) {
	for _, np := range Plans() {
		s := np.Plan.String()
		got, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("%s: parse %q: %v", np.Name, s, err)
		}
		if got != np.Plan {
			t.Fatalf("%s: round trip changed plan: %q -> %+v", np.Name, s, got)
		}
	}
}

// TestParsePlanPresetNames: preset names are accepted as specs.
func TestParsePlanPresetNames(t *testing.T) {
	for _, np := range Plans() {
		got, err := ParsePlan(np.Name)
		if err != nil {
			t.Fatalf("preset %q rejected: %v", np.Name, err)
		}
		if got != np.Plan {
			t.Fatalf("preset %q resolved to %+v, want %+v", np.Name, got, np.Plan)
		}
	}
	if _, err := ParsePlan("no-such-preset"); err == nil {
		t.Fatal("bogus preset accepted")
	}
}

// TestParsePlanRejectsOutOfRange: a value outside its key's range is an
// error naming the key. NaN probabilities used to parse into a plan
// whose String was "none", so the replay silently ran without faults.
func TestParsePlanRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct{ spec, key string }{
		{"preempt-any=NaN", "preempt-any"},
		{"crash-hold=NaN", "crash-hold"},
		{"jitter=Inf", "jitter"},
		{"drop=-Inf", "drop"},
		{"preempt-cs=-0.1", "preempt-cs"},
		{"spurious=1.5", "spurious"},
		{"crash-parked=2", "crash-parked"},
		{"jitter=1.01", "jitter"},
		{"wake-delay=-1", "wake-delay"},
		{"spurious-after=-5", "spurious-after"},
		{"npcs-delay=-2", "npcs-delay"},
		{"detach=-1", "detach"},
		{"crash-parked-after=-1", "crash-parked-after"},
		{"crash-max=-3", "crash-max"},
		{"horizon=-100", "horizon"},
		{"jitter=0.5,preempt-window=NaN", "preempt-window"},
	} {
		if _, err := ParsePlan(c.spec); err == nil || !strings.Contains(err.Error(), `"`+c.key+`"`) {
			t.Errorf("ParsePlan(%q) = %v, want an error naming %q", c.spec, err, c.key)
		}
	}
}

// inRange reports whether every field of p lies in its documented range.
func inRange(p Plan) bool {
	for _, x := range []float64{
		p.SliceJitterPct, p.PreemptAnyProb, p.PreemptWindowProb, p.PreemptCSProb,
		p.SpuriousWakeProb, p.DropSwitchProb,
		p.CrashHoldProb, p.CrashWindowProb, p.CrashQueueProb, p.CrashParkedProb,
	} {
		if !(x >= 0 && x <= 1) {
			return false
		}
	}
	return p.WakeDelay >= 0 && p.SpuriousWakeAfter >= 0 && p.NPCSDelay >= 0 &&
		p.DetachAfter >= 0 && p.CrashParkedAfter >= 0 && p.CrashMax >= 0
}

// FuzzParsePlan: parsing never panics, an accepted spec is in range, and
// it round-trips through String to an equal plan.
func FuzzParsePlan(f *testing.F) {
	for _, np := range append(Plans(), CrashPlans()...) {
		f.Add(np.Name)
		f.Add(np.Plan.String())
	}
	for _, s := range []string{
		"", "preempt-any=NaN", "crash-hold=NaN", "jitter=Inf", "wake-delay=-1",
		"jitter=-0", "stuck=0", "preempt-any=0x1p-4,drop=1e-3", "crash-max=+2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil {
			return
		}
		if !inRange(p) {
			t.Fatalf("ParsePlan(%q) accepted an out-of-range plan %#v", s, p)
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) = %+v, whose String %q is rejected: %v", s, p, p.String(), err)
		}
		if q != p {
			t.Fatalf("ParsePlan(%q): round trip through %q changed %#v to %#v", s, p.String(), p, q)
		}
	})
}

// TestFromBitsBounded: derived plans stay within the documented caps and
// are a pure function of the bits.
func TestFromBitsBounded(t *testing.T) {
	bits := []uint64{0, 1, 0xffffffffffffffff, 0xdeadbeef, 1 << 40, 0x5555_5555}
	for _, b := range bits {
		p1, p2 := FromBits(b), FromBits(b)
		if p1 != p2 {
			t.Fatalf("FromBits(%#x) not deterministic", b)
		}
		if p1.SliceJitterPct < 0 || p1.SliceJitterPct >= 1 {
			t.Fatalf("FromBits(%#x): jitter %v out of [0,1)", b, p1.SliceJitterPct)
		}
		if p1.WakeDelay < 0 || p1.WakeDelay > 30_000 {
			t.Fatalf("FromBits(%#x): wake delay %d out of cap", b, p1.WakeDelay)
		}
	}
	if !FromBits(0).IsZero() {
		t.Fatal("FromBits(0) should be the zero plan")
	}
}

// TestShrinkDropsIrrelevantFaults: a predicate that only needs one field
// shrinks to a plan with exactly that field.
func TestShrinkDropsIrrelevantFaults(t *testing.T) {
	chaos, _ := PlanByName("chaos")
	needsDrop := func(p Plan) bool { return p.DropSwitchProb > 0 }
	min := Shrink(chaos, needsDrop)
	if !needsDrop(min) {
		t.Fatal("shrink lost the failing fault")
	}
	want := Plan{DropSwitchProb: min.DropSwitchProb}
	if min != want {
		t.Fatalf("shrink kept irrelevant faults: %+v", min)
	}
	if min.DropSwitchProb >= chaos.DropSwitchProb {
		t.Fatalf("shrink never halved the magnitude: %v", min.DropSwitchProb)
	}
}

// TestShrinkKeepsFailingPlan: shrinking never returns a passing plan.
func TestShrinkKeepsFailingPlan(t *testing.T) {
	start := Plan{WakeDelay: 16_000, SpuriousWakeProb: 0.5}
	fails := func(p Plan) bool { return p.WakeDelay >= 4_000 }
	min := Shrink(start, fails)
	if !fails(min) {
		t.Fatalf("shrunk plan passes: %+v", min)
	}
	if min.SpuriousWakeProb != 0 {
		t.Fatalf("irrelevant spurious-wake fault kept: %+v", min)
	}
}
