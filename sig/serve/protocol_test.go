package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The wake-token protocol between Submit and the pump, as a finite-control
// machine over the real pacer and the production pump loop: up to three
// arrivals, each of which reads the clock and later queues its request under
// Server.mu (arrival, told whether it wakes an idle queue); a pump whose
// every step is one turn of pacer.run — it wakes on the token, or on its timer
// once next's wakeAt has come, and fires a wave that begins, admits (pops every
// queued request, then spend), runs a short or an overrunning wall of fake
// time, admits again (its follow-on: pops what queued meanwhile, then spend),
// ends, while arrivals queue after its begin, between its two admissions or
// after the second; and a clock that jumps to the due time. tokState is one
// state of it: the pacer's stored fields, the fake clock and the arrivals,
// all comparable. The due time is not a field: it is the pacer's, derived
// from start and measured (tokState.due).
type tokState struct {
	now, start, measured, lastEnd int64 // the FakeClock and the pacer
	early                         bool
	token                         int8 // the arrival that posted the pending token; -1 for none

	arr [3]struct {
		phase int8  // arrFree → arrRead → arrQueued → arrPopped
		at    int64 // the clock reading Submit took
		due   bool  // it queued at or past the due time in force
	}

	waves, ticks int8
}

const (
	arrFree int8 = iota
	arrRead
	arrQueued
	arrPopped
)

// The model's bounds, and the two wave walls the pump may run: half the
// configured period, so the first wave's sample moves the cadence down, and
// one and a half, an overrun.
const (
	tokWaves  = 2
	tokTicks  = 3
	tokPeriod = time.Millisecond
)

var tokWalls = [...]time.Duration{tokPeriod / 2, 3 * tokPeriod / 2}

// tokMutant drops one step of the protocol: spend from both of a wave's
// admissions, or the due token from Submit (arrival posting only its idle
// wake).
type tokMutant struct{ noSpend, noDue bool }

var tokCfg = Config{WavePeriod: tokPeriod, MinPeriod: tokPeriod / 4}

// load rebuilds the real pacer and its clock from st.
func (st *tokState) load() (*pacer, *FakeClock) {
	fc := NewFakeClock()
	fc.Advance(time.Duration(st.now))
	p := new(pacer)
	p.init(&tokCfg, 1, time.Unix(0, 0))
	p.startNs.Store(st.start)
	p.measuredNs.Store(st.measured)
	p.early, p.lastEnd = st.early, time.Unix(0, st.lastEnd)
	if st.token >= 0 {
		p.post()
	}
	return p, fc
}

// store copies the pacer and its clock back into st; the arrival that
// posted a pending token is queue's to record.
func (st *tokState) store(p *pacer, fc *FakeClock) {
	st.now = fc.Now().UnixNano()
	st.start, st.measured = p.startNs.Load(), p.measuredNs.Load()
	st.early, st.lastEnd = p.early, p.lastEnd.UnixNano()
	if len(p.wake) == 0 {
		st.token = -1
	}
}

// due is when the next wave is due in st, as the pacer derives it.
func (st *tokState) due() int64 {
	p, _ := st.load()
	return p.due()
}

// wakeAt is when the pump's timer fires in st: next's wakeAt.
func (st *tokState) wakeAt() int64 {
	p, fc := st.load()
	_, _, at := p.next(fc.Now(), false)
	return at.UnixNano()
}

// queue is arrival i's second step, Submit's tail under Server.mu: its
// request joins the queue, and the pacer hears of it (arrival, told whether
// it ends an idle spell at ratio 1.0).
func (st *tokState) queue(p *pacer, i int, ratio float64, m tokMutant) {
	idle := true
	for _, a := range st.arr {
		idle = idle && a.phase != arrQueued
	}
	st.arr[i].phase, st.arr[i].due = arrQueued, st.arr[i].at >= p.due()
	if wake := idle && ratio >= 1; !m.noDue {
		p.arrival(time.Unix(0, st.arr[i].at), wake)
	} else if wake {
		p.post()
	}
	if len(p.wake) > 0 && st.token < 0 {
		st.token = int8(i)
	}
}

// Where an arrival queues during a pump step (tokState.pump's mid): not in
// this step; one that has read the clock, after the wave's begin or after its
// first admit; one that has not, reading the clock as the wave's wall ends —
// past the due time if the wave overran — and queuing before the follow-on
// admit; or one that has read the clock or reads it then, queuing after the
// follow-on admit, for the next wave.
const (
	midNone int8 = iota
	midBegun
	midAdmitted
	midLate
	midFollowed
	midSlots
)

// pump is one turn of the production pump loop (pacer.run) from st: its wait
// returns once, on the token or on the timer, and its wave is runWave's pacer
// steps around a wall of fake time. Arrival i queues inside the wave as
// mid[i] says, those in one slot in index order.
func (st tokState) pump(token bool, wall time.Duration, mid [3]int8, ratio float64, m tokMutant) tokState {
	p, fc := st.load()
	queue := func(slot int8) {
		for i := range st.arr {
			if mid[i] == slot {
				st.queue(p, i, ratio, m)
			}
		}
	}
	waits := 0
	p.run(fc, func(time.Time) (bool, bool) {
		if waits++; waits == 1 && token {
			<-p.wake
			st.token = -1
		}
		return token, waits == 1
	}, func(token bool) {
		admit := func() {
			for i := range st.arr {
				if st.arr[i].phase == arrQueued {
					st.arr[i].phase = arrPopped
				}
			}
			if !m.noSpend {
				p.spend()
				st.token = -1
			}
		}
		p.begin(fc.Now(), token)
		queue(midBegun)
		admit()
		queue(midAdmitted)
		fc.Advance(wall)
		for i := range st.arr {
			if st.arr[i].phase == arrFree && (mid[i] == midLate || mid[i] == midFollowed) {
				st.arr[i].at = fc.Now().UnixNano()
			}
		}
		queue(midLate)
		admit() // the follow-on
		queue(midFollowed)
		p.end(fc.Now(), wall)
		st.waves++
	})
	st.store(p, fc)
	return st
}

// next returns every state one step of one actor leads to from st, each
// with the step's name.
func (st tokState) next(ratio float64, m tokMutant) (out []tokState, steps []string) {
	add := func(n tokState, step string) { out, steps = append(out, n), append(steps, step) }
	if due := st.due(); st.ticks < tokTicks && st.now < due {
		n := st
		n.now, n.ticks = due, st.ticks+1
		add(n, fmt.Sprintf("clock to due %v", time.Duration(due)))
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
			n.queue(p, i, ratio, m)
			n.store(p, fc)
			add(n, fmt.Sprintf("arrival %d queues (due %v)", i, n.arr[i].due))
		}
	}
	if st.waves == tokWaves {
		return out, steps
	}
	// Every way the arrivals can queue during the wave. Within a slot they
	// queue in index order: the arrivals are interchangeable, so any other
	// order is that of a state the walk reaches with the indices swapped.
	for c := range midSlots * midSlots * midSlots {
		mid, ok := [3]int8{int8(c % midSlots), int8(c / midSlots % midSlots), int8(c / (midSlots * midSlots))}, true
		for i, a := range st.arr {
			switch mid[i] {
			case midBegun, midAdmitted:
				ok = ok && a.phase == arrRead
			case midLate:
				ok = ok && a.phase == arrFree
			case midFollowed:
				ok = ok && (a.phase == arrRead || a.phase == arrFree)
			}
		}
		for _, wall := range tokWalls {
			if ok && st.token >= 0 {
				n := st.pump(true, wall, mid, ratio, m)
				add(n, fmt.Sprintf("pump wakes on the token: wave of %v (early %v, arrivals queued mid-wave %v)", wall, n.early, mid))
			}
			if ok && st.now >= st.wakeAt() {
				add(st.pump(false, wall, mid, ratio, m), fmt.Sprintf("pump's timer fires: wave of %v (arrivals queued mid-wave %v)", wall, mid))
			}
		}
	}
	return out, steps
}

// violation names the first of the two properties st breaks, or "".
//   - no spare wave: a pending token was posted by a request an admit has
//     already popped, so it would fire a wave with nothing of its own;
//   - no lost due wave: a queued request that found its wave due has a
//     token pending, and one that queued before its due time has the pump's
//     wakeAt no later than that due time.
func (st *tokState) violation() string {
	if st.token >= 0 && st.arr[st.token].phase == arrPopped {
		return fmt.Sprintf("spare wave: arrival %d's token outlived the admit that popped it", st.token)
	}
	for i, a := range st.arr {
		switch {
		case a.phase != arrQueued:
		case a.due && st.token < 0:
			return fmt.Sprintf("lost due wave: arrival %d queued past its due time and left no token", i)
		case !a.due && st.wakeAt() > max(st.due(), st.now):
			return fmt.Sprintf("lost due wave: arrival %d waits on a timer at %v, past the due time %v", i, time.Duration(st.wakeAt()), time.Duration(st.due()))
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
	init.token = -1
	init.store(p, NewFakeClock())
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
// an empty or a non-empty queue, between waves or inside one before, between
// or after its two admissions, at ratio 1.0 and below it — with two turns of
// the production pump loop, each a short or an overrunning wave, on the real
// pacer methods over a FakeClock. No spare wave and no lost due wave
// (see violation) must hold in every state. Each property is shown to bite
// under its own mutant:
//   - noSpend, admissions that pop without spend, must break "no spare wave";
//   - noDue, a Submit that never posts the due token, must break "no lost
//     due wave".
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
