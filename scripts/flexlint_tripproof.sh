#!/usr/bin/env bash
# Trip proof for the flexlint suite: CI must not just see flexlint pass
# on a clean tree, it must see each pass actually catch an injected
# violation. For every pass this script drops minimal bad files into
# the module, one at a time, requires flexlint to exit nonzero naming
# that pass, removes the injection, and finally requires the tree to be
# clean again. lockpair and traceprotocol trip both on a straight-line
# path and inside a loop, the two halves of the statement walker they
# share, and lockpair also on a call in a switch case expression. A
# silently broken pass (wrong root set, edge kind regression, loop
# handling, suppressed reporting) fails here, not in review.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=internal/locks/ztripproof_injected.go
out=$(mktemp)
bin=$(mktemp -d)
trap 'rm -rf "$tmp" "$out" "$bin"' EXIT

go build -o "$bin/flexlint" ./cmd/flexlint

echo "== clean tree must pass =="
"$bin/flexlint" ./...

trip() {
  local pass=$1
  cat >"$tmp"
  if "$bin/flexlint" ./... >"$out" 2>&1; then
    echo "injected $pass violation did not trip flexlint" >&2
    exit 1
  fi
  if ! grep -q "\[$pass\]" "$out"; then
    echo "flexlint tripped, but not on $pass:" >&2
    cat "$out" >&2
    exit 1
  fi
  rm -f "$tmp"
  echo "== $pass trips =="
}

# hotalloc: an allocation inside a structurally-matched Lock method.
trip hotalloc <<'GO'
package locks

import "repro/internal/sim"

type ztripHot struct{ w *sim.Word }

func (l *ztripHot) Lock(p *sim.Proc) {
	buf := make([]uint64, 4)
	p.Store(l.w, buf[0]+1)
}

func (l *ztripHot) Unlock(p *sim.Proc) { p.Store(l.w, 0) }
GO

# hotalloc, observer roots: an allocating lock-event observer, which the
# step loop reaches only through the sim.LockObserver interface.
trip hotalloc <<'GO'
package locks

import "repro/internal/sim"

type ztripObs struct{ log []sim.TraceKind }

func (o *ztripObs) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	o.log = append(o.log, kind)
}
GO

# costcoverage: a free Word.V peek on a spawned simulated thread,
# outside any spin condition.
trip costcoverage <<'GO'
package locks

import "repro/internal/sim"

func ztripCost(m *sim.Machine, w *sim.Word) {
	m.Spawn("ztrip", func(p *sim.Proc) {
		for w.V() == 0 {
			p.Yield()
		}
	})
}
GO

# costcoverage, kernel writes: a kernel-side store issued from a
# spawned simulated thread instead of a kernel hook.
trip costcoverage <<'GO'
package locks

import "repro/internal/sim"

func ztripKernel(m *sim.Machine, w *sim.Word) {
	m.Spawn("ztrip", func(p *sim.Proc) {
		m.KernelStore(w, 1)
	})
}
GO

# traceprotocol: a Lock path that emits two acquire-class events.
trip traceprotocol <<'GO'
package locks

import "repro/internal/sim"

type ztripProto struct {
	w   *sim.Word
	lid int32
}

func (l *ztripProto) Lock(p *sim.Proc) {
	p.Store(l.w, 1)
	p.LockEvent(sim.TraceAcquire, l.lid)
	p.LockEvent(sim.TraceAcquire, l.lid)
}

func (l *ztripProto) Unlock(p *sim.Proc) {
	p.Store(l.w, 0)
	p.LockEvent(sim.TraceRelease, l.lid)
}
GO

# lockpair, annotation-free: an interprocedural early-return leak.
trip lockpair <<'GO'
package locks

import "repro/internal/sim"

func ztripPair(l *MCS, p *sim.Proc, skip bool) {
	l.Lock(p)
	if skip {
		return
	}
	l.Unlock(p)
}
GO

# traceprotocol, loops: a Lock that emits its acquire event inside the
# CAS retry loop, so every failed attempt emits another.
trip traceprotocol <<'GO'
package locks

import "repro/internal/sim"

type ztripRetry struct {
	w   *sim.Word
	lid int32
}

func (l *ztripRetry) Lock(p *sim.Proc) {
	for {
		p.LockEvent(sim.TraceAcquire, l.lid)
		if p.CAS(l.w, 0, 1) == 0 {
			return
		}
	}
}

func (l *ztripRetry) Unlock(p *sim.Proc) {
	p.Store(l.w, 0)
	p.LockEvent(sim.TraceRelease, l.lid)
}
GO

# lockpair, loops: a loop that takes an MCS lock on every iteration.
trip lockpair <<'GO'
package locks

import "repro/internal/sim"

func ztripLoop(l *MCS, p *sim.Proc, n int) {
	for i := 0; i < n; i++ {
		l.Lock(p)
	}
}
GO

# lockpair, case expressions: a thread body that takes an MCS lock in a
# call in a switch case expression, which runs on every path through
# the switch, and never releases it.
trip lockpair <<'GO'
package locks

import "repro/internal/sim"

func ztripCaseKey(l *MCS, p *sim.Proc) int {
	l.Lock(p)
	return 1
}

func ztripCase(m *sim.Machine, l *MCS, k int) {
	m.Spawn("ztrip", func(p *sim.Proc) {
		switch k {
		case ztripCaseKey(l, p):
		}
	})
}
GO

# spinloop: a hand-rolled poll of a word instead of SpinOn.
trip spinloop <<'GO'
package locks

import "repro/internal/sim"

func ztripSpin(p *sim.Proc, w *sim.Word) {
	for p.Load(w) != 0 {
	}
}
GO

# determinism: an unaudited map range in lock code.
trip determinism <<'GO'
package locks

func ztripMap(m map[int32]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
GO

echo "== clean tree must pass again =="
"$bin/flexlint" ./...
echo "trip proof ok"
