package main

// The recorded-trace format behind -record and -races: one JSON object
// per line. "lockdef", "threaddef" and "worddef" lines define the lock,
// thread and word ids, each in dense id order from 0; then "mem" and
// "lock" lines carry the interleaved Word-access and lock-event streams
// in occurrence order. A file written by -record replays bit-identically
// through the race auditor because the auditor consumes exactly these
// two streams (check.MemAccess + lock events) and nothing else. Replay
// rejects any event whose ids the file has not defined, so a malformed
// or hostile file costs at most memory proportional to its own size.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/sim"
)

// traceLine is one record; T selects which fields are meaningful.
type traceLine struct {
	T    string `json:"t"` // "lockdef", "threaddef", "worddef", "mem", "lock" or "end"
	At   int64  `json:"at"`
	Kind int32  `json:"kind"`
	TID  int32  `json:"tid"`
	// mem fields
	Word  int32   `json:"word"`
	Name  string  `json:"name"`
	Old   uint64  `json:"old"`
	New   uint64  `json:"new"`
	Wrote bool    `json:"wrote"`
	Arg   int32   `json:"arg"`
	Rel   bool    `json:"rel"`
	Watch []int32 `json:"watch,omitempty"`
	// lock / lockdef fields (threaddef uses TID and Name, worddef Word
	// and Name)
	Lock int32 `json:"lock"`
}

// recorder buffers both event streams during a run and writes the file
// afterwards (lockdef lines first, then events in order).
type recorder struct {
	lines []traceLine
}

// MemEvent implements sim.MemObserver.
func (r *recorder) MemEvent(ev *sim.MemEvent) {
	l := traceLine{
		T: "mem", At: int64(ev.At), Kind: int32(ev.Kind), TID: ev.TID,
		Word: -1, Old: ev.Old, New: ev.New, Wrote: ev.Wrote, Arg: ev.Arg, Rel: ev.Rel,
	}
	if ev.W != nil {
		l.Word, l.Name = ev.W.ID(), ev.W.Name()
	}
	for _, w := range ev.Watch {
		if w != nil {
			//flexlint:allow hotalloc the recorder buffers the whole run by design
			l.Watch = append(l.Watch, w.ID())
		}
	}
	//flexlint:allow hotalloc the recorder buffers the whole run by design
	r.lines = append(r.lines, l)
}

// LockEvent implements sim.LockObserver.
func (r *recorder) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	//flexlint:allow hotalloc the recorder buffers the whole run by design
	r.lines = append(r.lines, traceLine{
		T: "lock", At: int64(at), Kind: int32(kind), Lock: lock, TID: tid, Arg: arg,
	})
}

// write dumps the lock, thread and word definitions, the buffered
// events, and a final "end" record carrying the run's quiesced time —
// the auditor's end-of-run missed-signal scan needs the true horizon,
// not the last event's timestamp (a stranded spinner is only provably
// stranded once the machine has been idle past the stall bound).
func (r *recorder) write(w io.Writer, m *sim.Machine, quiesced sim.Time) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var defs []traceLine
	for id := 0; id < m.NumLocks(); id++ {
		defs = append(defs, traceLine{T: "lockdef", Lock: int32(id), Name: m.LockName(int32(id))})
	}
	for _, th := range m.Threads() {
		defs = append(defs, traceLine{T: "threaddef", TID: int32(th.ID()), Name: th.Name()})
	}
	for _, w := range m.Words() {
		defs = append(defs, traceLine{T: "worddef", Word: w.ID(), Name: w.Name()})
	}
	for _, l := range append(defs, r.lines...) {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	if err := enc.Encode(traceLine{T: "end", At: int64(quiesced)}); err != nil {
		return err
	}
	return bw.Flush()
}

// replayRaces feeds a recorded trace through a fresh race auditor and
// prints each verdict with both access sites and virtual timestamps.
// It returns the number of races found.
func replayRaces(path string, w io.Writer) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return replayRacesFrom(f, path, w)
}

// traceIDs counts the ids a trace has defined so far; an event may only
// name defined ids (thread ids may also be the kernel pseudo-ids -1 and
// -2, word and lock ids -1 where the record carries none).
type traceIDs struct {
	locks, threads, words int32
}

// define accepts the next definition of a dense id sequence.
func define(n *int32, id int32, what string) error {
	if id != *n {
		return fmt.Errorf("%s definition %d out of order (want %d)", what, id, *n)
	}
	*n++
	return nil
}

func (d traceIDs) thread(tid int32) error {
	if tid < -2 || tid >= d.threads {
		return fmt.Errorf("thread id %d out of range [-2, %d)", tid, d.threads)
	}
	return nil
}

func (d traceIDs) word(id int32) error {
	if id < 0 || id >= d.words {
		return fmt.Errorf("word id %d out of range [0, %d)", id, d.words)
	}
	return nil
}

// mem validates one Word-access record's ids. Loads, stores, RMWs and
// kernel writes name a word; spin events carry -1 and a non-empty watch
// set, futex wakes the futex word; a wake's Arg is the woken thread.
func (d traceIDs) mem(l *traceLine) error {
	if err := d.thread(l.TID); err != nil {
		return err
	}
	kind := sim.MemKind(l.Kind)
	if (kind == sim.MemSpinStart || kind == sim.MemSpinExit) && len(l.Watch) == 0 {
		return fmt.Errorf("%s record with an empty watch set", kind)
	}
	if kind == sim.MemFutexWake {
		if err := d.thread(l.Arg); err != nil {
			return err
		}
	}
	access := kind == sim.MemLoad || kind == sim.MemStore || kind == sim.MemRMW || kind == sim.MemKernel
	if access || l.Word != -1 {
		if err := d.word(l.Word); err != nil {
			return err
		}
	}
	for _, id := range l.Watch {
		if err := d.word(id); err != nil {
			return err
		}
	}
	return nil
}

// lock validates one lock-event record's ids.
func (d traceIDs) lock(l *traceLine) error {
	if err := d.thread(l.TID); err != nil {
		return err
	}
	if l.Lock < -1 || l.Lock >= d.locks {
		return fmt.Errorf("lock id %d out of range [-1, %d)", l.Lock, d.locks)
	}
	return nil
}

// replayRacesFrom is replayRaces over an open trace; name labels errors
// and output.
func replayRacesFrom(r io.Reader, name string, w io.Writer) (int, error) {
	ra := check.NewRaceAuditor(check.RaceOptions{})
	names := make(map[int32]string)
	ra.SetLockNames(names)

	var ids traceIDs
	var mems, lockEvs, lineNo int
	var last sim.Time
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		lineNo++
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return 0, fmt.Errorf("%s:%d: bad trace line: %v", name, lineNo, err)
		}
		if t := sim.Time(l.At); t > last {
			last = t
		}
		var err error
		switch l.T {
		case "lockdef":
			if err = define(&ids.locks, l.Lock, "lock"); err == nil {
				names[l.Lock] = l.Name
			}
		case "threaddef":
			err = define(&ids.threads, l.TID, "thread")
		case "worddef":
			err = define(&ids.words, l.Word, "word")
		case "mem":
			if err = ids.mem(&l); err == nil {
				mems++
				ra.Apply(check.MemAccess{
					At: sim.Time(l.At), Kind: sim.MemKind(l.Kind), TID: l.TID,
					Word: l.Word, Name: l.Name, Old: l.Old, New: l.New,
					Wrote: l.Wrote, Arg: l.Arg, Rel: l.Rel, Watch: l.Watch,
				})
			}
		case "lock":
			if err = ids.lock(&l); err == nil {
				lockEvs++
				ra.LockEvent(sim.Time(l.At), sim.TraceKind(l.Kind), l.Lock, l.TID, l.Arg)
			}
		case "end":
			// quiesced time; already folded into last above.
		default:
			err = fmt.Errorf("unknown trace line type %q", l.T)
		}
		if err != nil {
			return 0, fmt.Errorf("%s:%d: %v", name, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}

	races := ra.Finish(last)
	fmt.Fprintf(w, "replayed %d mem + %d lock events (through t=%d) from %s\n",
		mems, lockEvs, last, name)
	for i, r := range races {
		fmt.Fprintf(w, "race %d: %s\n", i+1, r)
		if r.Other >= 0 {
			fmt.Fprintf(w, "  access pair: thread %d at t=%d  vs  thread %d at t=%d\n",
				r.Thread, r.ThreadAt, r.Other, r.OtherAt)
		} else {
			fmt.Fprintf(w, "  access: thread %d waiting since t=%d, no signaling write ever arrived\n",
				r.Thread, r.ThreadAt)
		}
	}
	if ra.Total > int64(len(races)) {
		fmt.Fprintf(w, "(%d further race(s) beyond the storage cap)\n", ra.Total-int64(len(races)))
	}
	fmt.Fprintf(w, "total: %d race(s)\n", ra.Total)
	return int(ra.Total), nil
}
