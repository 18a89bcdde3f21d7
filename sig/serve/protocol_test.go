package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The wake-token protocol between Submit and the pump, as a finite-control
// machine over the real pacer: up to three arrivals, each of which reads the
// clock and later queues its request under Server.mu (idleArrival into an
// empty queue, dueArrival always); a pump that fires a wave on the token or
// on its timer, begins it, admits (pops every queued request, then spend),
// and ends it (end and settle, re-arming the timer); and a clock that jumps
// to the due time. tokState is one state of it: the pacer's fields, the fake
// clock and the model's own bookkeeping, all comparable.
type tokState struct {
	now, due, pace, measured, lastEnd int64 // the FakeClock and the pacer
	early                             bool
	token                             int8 // the arrival that posted the pending token; -1 for none

	arr [3]struct {
		phase int8  // arrFree → arrRead → arrQueued → arrPopped
		at    int64 // the clock reading Submit took
		due   bool  // it queued at or past the due time in force
	}

	pump         int8 // pumpWaiting → pumpFired → pumpBegun → pumpRunning → pumpWaiting
	fired        bool // the wave in flight was fired by a token
	start, timer int64
	waves, ticks int8
}

const (
	arrFree int8 = iota
	arrRead
	arrQueued
	arrPopped
)

const (
	pumpWaiting int8 = iota
	pumpFired
	pumpBegun
	pumpRunning
)

// The model's bounds, and the one wave wall it runs: half the configured
// period, so the first wave's settle retimes the cadence down.
const (
	tokWaves  = 2
	tokTicks  = 3
	tokPeriod = time.Millisecond
	tokWall   = tokPeriod / 2
)

// tokMutant drops one step of the protocol: spend from admit, or
// dueArrival from Submit.
type tokMutant struct{ noSpend, noDue bool }

var tokCfg = Config{WavePeriod: tokPeriod, MinPeriod: tokPeriod / 4}

// load rebuilds the real pacer and its clock from st.
func (st *tokState) load() (*pacer, *FakeClock) {
	fc := NewFakeClock()
	fc.Advance(time.Duration(st.now))
	p := new(pacer)
	p.init(&tokCfg, 1, time.Unix(0, 0))
	p.due.Store(st.due)
	p.paceNs.Store(st.pace)
	p.measuredNs.Store(st.measured)
	p.early, p.lastEnd = st.early, time.Unix(0, st.lastEnd)
	if st.token >= 0 {
		p.post()
	}
	return p, fc
}

// store copies the pacer and its clock back into st; poster is the arrival
// a token left pending now was posted by, if it was posted in this step.
func (st *tokState) store(p *pacer, fc *FakeClock, poster int8) {
	st.now = fc.Now().UnixNano()
	st.due, st.pace, st.measured = p.due.Load(), p.paceNs.Load(), p.measuredNs.Load()
	st.early, st.lastEnd = p.early, p.lastEnd.UnixNano()
	switch {
	case len(p.wake) == 0:
		st.token = -1
	case st.token < 0:
		st.token = poster
	}
}

// next returns every state one step of one actor leads to from st, each
// with the step's name.
func (st tokState) next(ratio float64, m tokMutant) (out []tokState, steps []string) {
	add := func(n tokState, step string) { out, steps = append(out, n), append(steps, step) }
	if st.ticks < tokTicks && st.now < st.due {
		n := st
		n.now, n.ticks = st.due, st.ticks+1
		add(n, fmt.Sprintf("clock to due %v", time.Duration(st.due)))
	}
	idle := true
	for _, a := range st.arr {
		idle = idle && a.phase != arrQueued
	}
	for i, a := range st.arr {
		switch a.phase {
		case arrFree:
			n := st
			n.arr[i].phase, n.arr[i].at = arrRead, st.now
			add(n, fmt.Sprintf("arrival %d reads the clock at %v", i, time.Duration(st.now)))
		case arrRead:
			n := st
			p, fc := n.load()
			at := time.Unix(0, a.at)
			n.arr[i].phase, n.arr[i].due = arrQueued, a.at >= p.due.Load()
			if idle {
				p.idleArrival(ratio)
			}
			if !m.noDue {
				p.dueArrival(at)
			}
			n.store(p, fc, int8(i))
			add(n, fmt.Sprintf("arrival %d queues (idle %v, due %v)", i, idle, n.arr[i].due))
		}
	}
	switch st.pump {
	case pumpWaiting:
		if st.waves == tokWaves {
			break
		}
		if st.token >= 0 {
			n := st
			p, fc := n.load()
			<-p.wake
			n.store(p, fc, -1)
			n.pump, n.fired = pumpFired, true
			add(n, "pump wakes on the token")
		}
		if st.now >= st.timer {
			n := st
			n.pump, n.fired = pumpFired, false
			add(n, "pump's timer fires")
		}
	case pumpFired:
		n := st
		p, fc := n.load()
		p.begin(fc.Now(), st.fired)
		n.store(p, fc, -1)
		n.pump, n.start = pumpBegun, st.now
		add(n, fmt.Sprintf("wave begins (token %v, early %v)", st.fired, n.early))
	case pumpBegun:
		n := st
		for i := range n.arr {
			if n.arr[i].phase == arrQueued {
				n.arr[i].phase = arrPopped
			}
		}
		p, fc := n.load()
		if !m.noSpend {
			p.spend()
		}
		n.store(p, fc, -1)
		n.pump = pumpRunning
		add(n, "wave admits")
	case pumpRunning:
		n := st
		p, fc := n.load()
		fc.Advance(time.Duration(st.start) + tokWall - time.Duration(st.now))
		end := fc.Now()
		wall := end.Sub(time.Unix(0, st.start))
		p.end(end, wall)
		_, delay := p.settle(wall)
		n.store(p, fc, -1)
		n.pump, n.timer, n.waves = pumpWaiting, end.Add(delay).UnixNano(), st.waves+1
		add(n, fmt.Sprintf("wave ends, timer at %v", time.Duration(n.timer)))
	}
	return out, steps
}

// violation names the first of the two properties st breaks, or "".
//   - no spare wave: a pending token was posted by a request an admit has
//     already popped, so it would fire a wave with nothing of its own;
//   - no lost due wave: while the pump waits, a queued request that found
//     its wave due has a token pending, and one that queued before its due
//     time has the timer armed no later than that due time.
func (st *tokState) violation() string {
	if st.token >= 0 && st.arr[st.token].phase == arrPopped {
		return fmt.Sprintf("spare wave: arrival %d's token outlived the admit that popped it", st.token)
	}
	if st.pump != pumpWaiting {
		return ""
	}
	for i, a := range st.arr {
		switch {
		case a.phase != arrQueued:
		case a.due && st.token < 0:
			return fmt.Sprintf("lost due wave: arrival %d queued past its due time and left no token", i)
		case !a.due && st.timer > max(st.due, st.now):
			return fmt.Sprintf("lost due wave: arrival %d waits on a timer at %v, past the due time %v", i, time.Duration(st.timer), time.Duration(st.due))
		}
	}
	return ""
}

// exploreTokens walks every state reachable from a fresh pacer — the first
// wave due one period out, the pump waiting on a timer for it — depth
// first with a visited set, so every interleaving of the actors' steps is
// covered. It returns the number of states and the first violation, with
// the schedule that reaches it.
func exploreTokens(ratio float64, m tokMutant) (states int, bad string) {
	type edge struct {
		from tokState
		step string
	}
	var init tokState
	p := new(pacer)
	p.init(&tokCfg, 1, time.Unix(0, 0))
	init.store(p, NewFakeClock(), -1)
	init.timer = init.due
	seen := map[tokState]edge{init: {}}
	stack := []tokState{init}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v := st.violation(); v != "" {
			var sched []string
			for at := st; at != init; at = seen[at].from {
				sched = append(sched, seen[at].step)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%s, at ratio %v after:", v, ratio)
			for i := len(sched) - 1; i >= 0; i-- {
				fmt.Fprintf(&b, "\n\t%s", sched[i])
			}
			return len(seen), b.String()
		}
		succ, steps := st.next(ratio, m)
		for i, n := range succ {
			if _, ok := seen[n]; !ok {
				seen[n] = edge{st, steps[i]}
				stack = append(stack, n)
			}
		}
	}
	return len(seen), ""
}

// TestPacerTokenProtocol checks the wake-token protocol exhaustively: every
// interleaving of up to three arrivals — before or after the due time, into
// an empty or a non-empty queue, at ratio 1.0 and below it — with two waves'
// fire, begin, admit and spend, and end, and the pump's wait, on the real
// pacer methods over a FakeClock. No spare wave and no lost due wave (see
// violation) must hold in every state. Each property is shown to bite under
// its own mutant:
//   - noSpend, an admit that pops without spend, must break "no spare wave";
//   - noDue, a Submit that never calls dueArrival, must break "no lost due
//     wave".
func TestPacerTokenProtocol(t *testing.T) {
	for _, c := range []struct {
		name string
		m    tokMutant
		want string
	}{
		{"pacer", tokMutant{}, ""},
		{"noSpend", tokMutant{noSpend: true}, "spare wave"},
		{"noDue", tokMutant{noDue: true}, "lost due wave"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var found []string
			for _, ratio := range []float64{1, 0.5} {
				states, bad := exploreTokens(ratio, c.m)
				t.Logf("ratio %v: %d states", ratio, states)
				if bad != "" {
					found = append(found, bad)
				}
			}
			switch {
			case c.want == "" && len(found) > 0:
				t.Fatal(found[0])
			case c.want != "" && (len(found) == 0 || !strings.HasPrefix(found[0], c.want)):
				t.Fatalf("the %s mutant must break %q; found %q", c.name, c.want, found)
			case c.want != "":
				t.Logf("as it must: %s", found[0])
			}
		})
	}
}
