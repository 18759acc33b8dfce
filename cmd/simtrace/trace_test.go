package main

// Tests for the recorded-trace format: a recorded run replays to the
// live auditor's verdicts, and replay rejects ids the trace has not
// defined with an error — never a panic or an allocation sized by a
// hostile id.

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/workloads/sharedmem"
)

// tee fans the Word-access stream out to several observers.
type tee []sim.MemObserver

func (t tee) MemEvent(ev *sim.MemEvent) {
	for _, o := range t {
		o.MemEvent(ev)
	}
}

// recordMutant runs the tas-noatomic mutant under a live race auditor
// and the recorder, and returns the written trace and the live auditor.
func recordMutant(t testing.TB, threads int, deadline sim.Time) ([]byte, *check.RaceAuditor) {
	t.Helper()
	mu, ok := fault.MutantByName("tas-noatomic")
	if !ok {
		t.Fatal("tas-noatomic mutant missing")
	}
	cfg := sim.Small(2)
	cfg.Seed = 3
	env, err := harness.NewEnv(harness.EnvOptions{Config: cfg, Alg: "blocking"})
	if err != nil {
		t.Fatal(err)
	}
	m := env.M
	live := check.AttachRace(m, check.RaceOptions{})
	rec := &recorder{}
	m.SetMemObserver(tee{live, rec})
	m.AddLockObserver(rec)
	fault.Apply(m, env.Mon, mu.Plan, cfg.Seed)
	sharedmem.Build(m, sharedmem.Options{
		Threads:  threads,
		Deadline: deadline,
		NewLock:  func(name string) locks.Lock { return mu.New(m, nil, name) },
	})
	q := m.Run(deadline * 5 / 4)
	live.Finish(q)
	var buf bytes.Buffer
	if err := rec.write(&buf, m, q); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), live
}

func TestRecordReplayMatchesLive(t *testing.T) {
	trace, live := recordMutant(t, 4, 400_000)
	if live.Total == 0 {
		t.Fatal("the mutant run produced no race to replay")
	}
	var out strings.Builder
	n, err := replayRacesFrom(bytes.NewReader(trace), "rec", &out)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != live.Total {
		t.Fatalf("replay found %d races, the live auditor %d", n, live.Total)
	}
	for _, r := range live.Races() {
		if !strings.Contains(out.String(), r.String()) {
			t.Errorf("replay output lacks live verdict %s", r)
		}
	}
}

// replayHeader defines lock 0, threads 0-1 and word 0.
const replayHeader = `{"t":"lockdef","lock":0,"name":"l"}
{"t":"threaddef","tid":0}
{"t":"threaddef","tid":1}
{"t":"worddef","word":0,"name":"w"}
`

func TestReplayRejectsUndefinedIDs(t *testing.T) {
	cases := []struct {
		name, line, err string
	}{
		{"undefined thread", `{"t":"mem","kind":1,"tid":2,"word":0}`, "thread id 2"},
		{"below kernel id", `{"t":"mem","kind":1,"tid":-3,"word":0}`, "thread id -3"},
		{"huge thread", `{"t":"lock","kind":5,"tid":2147483647,"lock":0}`, "thread id 2147483647"},
		{"undefined word", `{"t":"mem","kind":2,"tid":0,"word":1}`, "word id 1"},
		{"wordless load", `{"t":"mem","kind":1,"tid":0,"word":-1}`, "word id -1"},
		{"undefined watch", `{"t":"mem","kind":5,"tid":0,"word":-1,"watch":[0,9]}`, "word id 9"},
		{"watchless spin start", `{"t":"mem","kind":5,"tid":0,"word":-1}`, "spin-start record with an empty watch set"},
		{"watchless spin exit", `{"t":"mem","kind":6,"tid":0,"word":-1,"watch":[]}`, "spin-exit record with an empty watch set"},
		{"undefined wakee", `{"t":"mem","kind":7,"tid":0,"word":0,"arg":5}`, "thread id 5"},
		{"undefined lock", `{"t":"lock","kind":5,"tid":0,"lock":1}`, "lock id 1"},
		{"negative lock", `{"t":"lock","kind":5,"tid":0,"lock":-2}`, "lock id -2"},
		{"sparse lockdef", `{"t":"lockdef","lock":1000000000}`, "lock definition 1000000000 out of order"},
		{"sparse worddef", `{"t":"worddef","word":7}`, "word definition 7 out of order"},
		{"unknown type", `{"t":"bogus"}`, "unknown trace line type"},
	}
	for _, c := range cases {
		_, err := replayRacesFrom(strings.NewReader(replayHeader+c.line+"\n"), "in", io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: got error %v, want one containing %q", c.name, err, c.err)
		}
	}
	ok := replayHeader + `{"t":"mem","kind":7,"tid":-2,"word":0,"arg":1}
{"t":"mem","kind":5,"tid":1,"word":-1,"watch":[0]}
{"t":"lock","kind":5,"tid":-1,"lock":-1}
{"t":"end","at":10}
`
	if _, err := replayRacesFrom(strings.NewReader(ok), "in", io.Discard); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
}

// FuzzReplayRaces: replay of arbitrary input returns an error or a
// verdict, never panics, and is deterministic.
func FuzzReplayRaces(f *testing.F) {
	trace, _ := recordMutant(f, 2, 4_000)
	f.Add(trace)
	f.Add([]byte(replayHeader + `{"t":"mem","kind":3,"tid":0,"word":0,"old":0,"new":1,"wrote":true}
{"t":"mem","kind":2,"tid":1,"word":0,"old":1,"new":2,"wrote":true}
{"t":"end","at":5}
`))
	f.Add([]byte(`{"t":"lock","kind":5,"tid":0,"lock":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out1, out2 strings.Builder
		n1, err1 := replayRacesFrom(bytes.NewReader(data), "fuzz", &out1)
		n2, err2 := replayRacesFrom(bytes.NewReader(data), "fuzz", &out2)
		if n1 != n2 || out1.String() != out2.String() || (err1 == nil) != (err2 == nil) {
			t.Fatalf("replay is not deterministic: %d/%v vs %d/%v", n1, err1, n2, err2)
		}
	})
}
