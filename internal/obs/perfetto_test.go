package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/locks"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRun executes a small fixed-seed contended-lock scenario. The
// simulator is deterministic, so two runs produce identical traces.
func goldenRun() (*sim.Machine, *sim.Tracer) {
	cfg := sim.Small(2)
	cfg.Seed = 7
	m := sim.New(cfg)
	tr := m.AttachTracer(1 << 16)
	l := locks.NewBlocking(m, "golden")
	for i := 0; i < 3; i++ {
		m.Spawn("w", func(p *sim.Proc) {
			for k := 0; k < 4; k++ {
				l.Lock(p)
				p.Compute(500)
				l.Unlock(p)
				p.Compute(200)
			}
		})
	}
	m.Run(10_000_000)
	return m, tr
}

func renderPerfetto(t *testing.T) []byte {
	t.Helper()
	m, tr := goldenRun()
	var buf bytes.Buffer
	if err := WritePerfettoTrace(&buf, m, tr.Events(), nil); err != nil {
		t.Fatalf("WritePerfettoTrace: %v", err)
	}
	return buf.Bytes()
}

// The export is a documented byte-stable function of the event stream:
// a fixed-seed run must reproduce the checked-in golden file exactly.
// Refresh with: go test ./internal/obs -run Golden -update
func TestPerfettoGolden(t *testing.T) {
	got := renderPerfetto(t)
	golden := filepath.Join("testdata", "perfetto_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("perfetto output differs from golden (len %d vs %d); rerun with -update if the change is intended",
			len(got), len(want))
	}
	// Determinism: a second independent run must match byte for byte.
	if again := renderPerfetto(t); !bytes.Equal(got, again) {
		t.Fatal("two identical runs produced different perfetto output")
	}
}

// Schema check: the output must be valid trace_event JSON that Perfetto
// can load — known phases only, pid/tid on every record, microsecond
// timestamps, durations on complete slices.
func TestPerfettoSchema(t *testing.T) {
	raw := renderPerfetto(t)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	phases := map[string]int{}
	for i, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		switch ph {
		case "M", "X", "i":
		default:
			t.Fatalf("event %d: unknown phase %q", i, ph)
		}
		phases[ph]++
		for _, key := range []string{"name", "pid", "tid", "ts"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d (%s) missing %q: %v", i, ph, key, e)
			}
		}
		pid := e["pid"].(float64)
		if pid != 0 && pid != 1 {
			t.Fatalf("event %d: pid %v not a known synthetic process", i, pid)
		}
		if ts := e["ts"].(float64); ts < 0 {
			t.Fatalf("event %d: negative ts %v", i, ts)
		}
		switch ph {
		case "X":
			if dur, ok := e["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("event %d: X slice without nonnegative dur: %v", i, e)
			}
		case "i":
			if s, _ := e["s"].(string); s != "t" {
				t.Fatalf("event %d: instant without thread scope: %v", i, e)
			}
		case "M":
			if args, ok := e["args"].(map[string]any); !ok || args["name"] == nil {
				t.Fatalf("event %d: metadata without args.name: %v", i, e)
			}
		}
	}
	// The contended blocking-lock run must yield critical-section slices
	// and instants, and metadata naming both processes.
	if phases["X"] == 0 || phases["i"] == 0 || phases["M"] < 2 {
		t.Fatalf("phase mix looks wrong: %v", phases)
	}
	// Every X slice is a critical section of the one lock in the run: 12
	// acquire/release pairs across 3 threads * 4 iterations.
	if phases["X"] != 12 {
		t.Fatalf("expected 12 critical-section slices, got %d", phases["X"])
	}
}

// A release without a retained acquire (evicted by the ring) must fall
// back to an instant rather than a broken slice.
func TestPerfettoUnmatchedRelease(t *testing.T) {
	events := []sim.TraceEvent{
		{At: 2200, Kind: sim.TraceRelease, Prev: 0, Next: -1, Lock: 0},
	}
	var buf bytes.Buffer
	if err := WritePerfettoTrace(&buf, nil, events, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range doc.TraceEvents {
		if e["ph"] == "i" && e["name"] == "release" {
			found = true
			if args := e["args"].(map[string]any); args["lock"] != "lock0" {
				t.Fatalf("unnamed lock should fall back to lock0: %v", e)
			}
			if ts := e["ts"].(float64); ts != 1.0 {
				t.Fatalf("2200 ticks should export as 1.000µs, got %v", ts)
			}
		}
	}
	if !found {
		t.Fatalf("unmatched release not exported as instant: %s", buf.String())
	}
}
