package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// Perfetto / Chrome trace_event JSON export. The output is the "JSON
// Array of objects wrapped in traceEvents" flavour of the trace_event
// format and loads in ui.perfetto.dev or chrome://tracing. Two
// synthetic processes organize the view: pid 0 "scheduler" carries
// context-switch/block/wake/sleep instants, pid 1 "locks" carries the
// lock-event trace (critical sections as complete "X" slices, every
// other lock event as an instant "i"). Timestamps are virtual-time
// microseconds with fixed 3-decimal formatting so identical runs export
// byte-identical files.

const (
	perfettoPidSched = 0
	perfettoPidLocks = 1
	perfettoPidTelem = 2
)

// usec is a microsecond timestamp serialized with exactly three
// decimals, keeping output byte-stable across runs and platforms.
type usec float64

func (u usec) MarshalJSON() ([]byte, error) {
	return []byte(strconv.FormatFloat(float64(u), 'f', 3, 64)), nil
}

// perfettoEvent is one trace_event record. Field order here fixes the
// JSON key order (encoding/json marshals struct fields in declaration
// order), which the golden-file test relies on.
type perfettoEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   usec           `json:"ts"`
	Dur  *usec          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func ticksToUsec(t sim.Time) usec {
	return usec(float64(t) / sim.TicksPerMicrosecond)
}

// lockNamer resolves lock ids to names; *sim.Machine satisfies it.
type lockNamer interface {
	LockName(id int32) string
}

func lockName(n lockNamer, id int32) string {
	if n != nil {
		if s := n.LockName(id); s != "" {
			return s
		}
	}
	return fmt.Sprintf("lock%d", id)
}

// CounterPoint is one sample of a counter track, in virtual time.
type CounterPoint struct {
	Ts    sim.Time
	Value int64
}

// CounterTrack is a named Perfetto counter ("C" phase) series, e.g. one
// flight-recorder metric sampled per window. Values are integral so the
// export stays byte-stable.
type CounterTrack struct {
	Name   string
	Points []CounterPoint
}

// WritePerfettoTrace exports events as trace_event JSON. names resolves
// lock ids (pass the *sim.Machine; nil falls back to "lock<id>").
// Events must be in time order, as produced by Tracer.Events(). Each
// counter track renders as a "C" counter series under synthetic pid 2
// "telemetry", in the order given (which must be deterministic — the
// flight recorder's track order is fixed); with no counters there is no
// pid 2. Output is deterministic: same events, same bytes.
func WritePerfettoTrace(w io.Writer, names lockNamer, events []sim.TraceEvent, counters []CounterTrack) error {
	bw := bufio.NewWriter(w)

	var out []perfettoEvent

	meta := func(pid int, tid int, kind, name string) {
		out = append(out, perfettoEvent{
			Name: kind,
			Ph:   "M",
			Ts:   0,
			Pid:  pid,
			Tid:  tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(perfettoPidSched, 0, "process_name", "scheduler")
	meta(perfettoPidLocks, 0, "process_name", "locks")
	if len(counters) > 0 {
		meta(perfettoPidTelem, 0, "process_name", "telemetry")
	}

	// Collect the thread ids that appear so each gets a thread_name
	// metadata record in both processes.
	maxTid := int32(-1)
	seeTid := func(id int32) {
		if id > maxTid {
			maxTid = id
		}
	}
	for _, e := range events {
		if e.Kind.IsLockEvent() {
			seeTid(e.Prev)
		} else {
			seeTid(e.Prev)
			if e.Kind == sim.TraceSwitch {
				seeTid(e.Next)
			}
		}
	}
	for id := int32(0); id <= maxTid; id++ {
		meta(perfettoPidSched, int(id), "thread_name", fmt.Sprintf("thread %d", id))
		meta(perfettoPidLocks, int(id), "thread_name", fmt.Sprintf("thread %d", id))
	}

	instant := func(pid int, tid int32, at sim.Time, name, cat string, args map[string]any) {
		out = append(out, perfettoEvent{
			Name: name,
			Ph:   "i",
			Ts:   ticksToUsec(at),
			Pid:  pid,
			Tid:  int(tid),
			S:    "t",
			Cat:  cat,
			Args: args,
		})
	}

	// Open acquires per (lock, thread), matched against releases to form
	// complete "X" critical-section slices.
	type lockThread struct{ lock, tid int32 }
	open := make(map[lockThread]sim.Time)

	for _, e := range events {
		switch e.Kind {
		case sim.TraceSwitch:
			instant(perfettoPidSched, e.Prev, e.At, "switch-out", "sched",
				map[string]any{"next": e.Next})
		case sim.TraceBlock, sim.TraceWake, sim.TraceSleep, sim.TraceExit:
			instant(perfettoPidSched, e.Prev, e.At, e.Kind.String(), "sched", nil)
		case sim.TraceAcquire:
			open[lockThread{e.Lock, e.Prev}] = e.At
		case sim.TraceRelease:
			k := lockThread{e.Lock, e.Prev}
			if start, ok := open[k]; ok {
				dur := ticksToUsec(e.At - start)
				out = append(out, perfettoEvent{
					Name: lockName(names, e.Lock),
					Ph:   "X",
					Ts:   ticksToUsec(start),
					Dur:  &dur,
					Pid:  perfettoPidLocks,
					Tid:  int(e.Prev),
					Cat:  "lock",
				})
				delete(open, k)
			} else {
				// Release whose acquire predates the retained window.
				instant(perfettoPidLocks, e.Prev, e.At, e.Kind.String(), "lock",
					map[string]any{"lock": lockName(names, e.Lock)})
			}
		case sim.TracePolicySwitch:
			name := "policy-switch block->spin"
			if e.Next == 1 {
				name = "policy-switch spin->block"
			}
			instant(perfettoPidLocks, e.Prev, e.At, name, "policy", nil)
		case sim.TraceNPCSUp, sim.TraceNPCSDown:
			instant(perfettoPidLocks, e.Prev, e.At, e.Kind.String(), "policy",
				map[string]any{"npcs": e.Next})
		case sim.TraceViolation:
			instant(perfettoPidLocks, e.Prev, e.At,
				"violation: "+sim.ViolationCodeName(e.Next), "check",
				map[string]any{"lock": lockName(names, e.Lock)})
		case sim.TraceMonitorStale:
			instant(perfettoPidLocks, e.Prev, e.At, "monitor-stale", "check",
				map[string]any{"reason": e.Next})
		case sim.TraceSpinStart, sim.TraceLockBlock, sim.TraceLockWake, sim.TraceHandover:
			args := map[string]any{"lock": lockName(names, e.Lock)}
			if e.Kind == sim.TraceHandover && e.Next >= 0 {
				args["successor"] = e.Next
			}
			instant(perfettoPidLocks, e.Prev, e.At, e.Kind.String(), "lock", args)
		}
	}

	// Counter tracks follow the event stream; Perfetto orders by ts, so
	// interleaving here is unnecessary and would cost a sort.
	for _, tr := range counters {
		for _, pt := range tr.Points {
			out = append(out, perfettoEvent{
				Name: tr.Name,
				Ph:   "C",
				Ts:   ticksToUsec(pt.Ts),
				Pid:  perfettoPidTelem,
				Tid:  0,
				Cat:  "telemetry",
				Args: map[string]any{"value": pt.Value},
			})
		}
	}

	// Stream one JSON object per line: deterministic, diff-friendly, and
	// no giant intermediate buffer.
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range out {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
