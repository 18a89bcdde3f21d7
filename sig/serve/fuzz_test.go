package serve

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/sig"
)

// FuzzServeAdmission feeds adversarial request/wave schedules through the
// admission path and checks the serving contracts:
//
//   - every accepted ticket completes with exactly one outcome, and the
//     per-outcome totals conserve (accurate+degraded+dropped = completed =
//     accepted);
//   - each wave's report splits its admissions by the runtime's count
//     (Stats.Accurate+Approximate+Dropped = Admitted), and those splits,
//     summed over every wave, are the per-outcome totals — the report holds
//     no outcome count of its own, so the runtime's must be the server's;
//   - accepted + rejected = attempted;
//   - each admission lane never exceeds its own slot share, and a Submit
//     is rejected only when its lane is at that share — the priority slice
//     can never be starved by bulk traffic, nor the bulk remainder by
//     premium traffic;
//   - the commanded ratio respects the MinRatio contract;
//   - Totals.Priority equals the premium requests that were accepted;
//   - the modeled energy account equals the declared cost of what actually
//     ran: accurate outcomes charge their accurate cost, degraded outcomes
//     their degraded cost, dropped outcomes exactly nothing (the runtime's
//     skipped-task accounting fix, exercised under adversarial schedules);
//   - with the fake clock driving measured wave time, every queue-full
//     rejection's RetryAfter covers at least one measured period — the
//     backoff hint can never under-price the server's own measurement.
//
// Input encoding (every byte string is valid):
//
//	data[0]  workers (1..4)
//	data[1]  queue limit (1..32; floored at 2 with a priority lane)
//	data[2]  cadence floor (1..16 µs): each worker's share of a wave's
//	         budget, in cost units
//	data[3]  MinRatio, quantized to data[3]/255 * 0.8
//	data[4]  priority lane: 0 disables, else PriorityAt = 0.5 + (v%5)/10
//	data[5]  measured-period bit: 0 leaves the FakeClock frozen, so every
//	         wave is priced at workers × the floor; else each handler
//	         advances it by (v%8+1) × 100µs — waves acquire fuzzer-chosen
//	         wall times and the pacer prices them
//	data[6:] op stream: 0 runs a wave; any other byte v submits a request
//	         with significance (v%11)/10, a degraded body iff v%3 != 0,
//	         and declared costs derived from v.
func FuzzServeAdmission(f *testing.F) {
	f.Add([]byte{1, 8, 4, 0, 0, 0, 7, 7, 7, 0, 9, 9, 0})
	f.Add([]byte{2, 2, 1, 128, 0, 0, 3, 6, 9, 12, 0, 3, 6, 9, 12, 0, 0})
	f.Add([]byte{4, 32, 16, 64, 1, 0, 255, 254, 253, 1, 2, 3, 0, 255, 1, 0})
	f.Add([]byte{3, 1, 2, 255, 3, 7, 11, 22, 33, 44, 55, 66, 77, 88, 99, 0})
	f.Add([]byte{2, 8, 2, 0, 2, 1, 10, 9, 10, 9, 10, 9, 10, 0, 10, 9, 0})
	f.Add([]byte{2, 3, 1, 0, 0, 255, 200, 200, 200, 0, 200, 200, 200, 200, 200, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			t.Skip()
		}
		minRatio := float64(data[3]) / 255 * 0.8
		fc := NewFakeClock()
		floor := time.Duration(1+int(data[2])%16) * time.Microsecond
		cfg := Config{
			Workers:    1 + int(data[0])%4,
			QueueLimit: 1 + int(data[1])%32,
			MinRatio:   minRatio,
			WavePeriod: floor,
			MinPeriod:  floor,
			Clock:      fc,
		}
		if v := data[4]; v != 0 {
			cfg.PriorityAt = 0.5 + float64(int(v)%5)/10
			if cfg.QueueLimit < 2 {
				cfg.QueueLimit = 2 // the lane needs a slot on each side
			}
		}
		var advance time.Duration
		if v := data[5]; v != 0 {
			advance = time.Duration(int(v)%8+1) * 100 * time.Microsecond
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := data[6:]
		if len(ops) > 1024 {
			ops = ops[:1024]
		}

		type accepted struct {
			tk       *Ticket
			acc, deg float64 // declared costs
			hasDeg   bool
		}
		var tks []accepted
		attempted, rejected := 0, 0
		acceptedPrio := int64(0)
		var waveAcc, waveApx, waveDrop int64 // summed over every wave's Stats
		runWave := func() {
			rep := s.RunWave()
			if rep.Control.NextRatio < minRatio-1e-9 {
				t.Fatalf("commanded ratio %.4f below MinRatio %.4f", rep.Control.NextRatio, minRatio)
			}
			if ws := rep.Stats; ws.Accurate+ws.Approximate+ws.Dropped != rep.Admitted {
				t.Fatalf("wave %d: %d/%d/%d decided, %d admitted", ws.Wave, ws.Accurate, ws.Approximate, ws.Dropped, rep.Admitted)
			}
			waveAcc += int64(rep.Stats.Accurate)
			waveApx += int64(rep.Stats.Approximate)
			waveDrop += int64(rep.Stats.Dropped)
		}
		for _, v := range ops {
			if v == 0 {
				runWave()
				continue
			}
			handler := func() { fc.Advance(advance) }
			req := Request{
				Significance: float64(int(v)%11) / 10,
				Handler:      handler,
				CostAccurate: float64(100 + 10*int(v)),
				CostDegraded: float64(1 + int(v)%50),
			}
			hasDeg := v%3 != 0
			if hasDeg {
				req.Degraded = handler
			}
			prio := cfg.PriorityAt > 0 && req.Significance >= cfg.PriorityAt
			laneDepth, laneLimit := laneState(s, prio)
			attempted++
			tk, err := s.Submit(req)
			if err != nil {
				rejected++
				// RetryAfter honesty: a queue-full backoff hint must cover at
				// least one measured period, whatever wall times the fake
				// clock has given the waves so far.
				var oe *OverloadError
				if errors.As(err, &oe) && oe.RetryAfter < s.MeasuredPeriod() {
					t.Fatalf("RetryAfter %v under one measured period %v", oe.RetryAfter, s.MeasuredPeriod())
				}
				// Lane conservation: a rejection is legal only when the
				// request's own lane was full — the other lane's backlog must
				// never bleed into this one's slots. (The sweep may have freed
				// expired slots first; no deadlines here, so depth is exact.)
				if laneDepth < laneLimit {
					t.Fatalf("lane (prio=%v) rejected at depth %d of %d slots", prio, laneDepth, laneLimit)
				}
				continue
			}
			if prio {
				acceptedPrio++
			}
			tks = append(tks, accepted{tk: tk, acc: req.CostAccurate, deg: req.CostDegraded, hasDeg: hasDeg})
			bulkD, prioD := s.LaneDepths()
			if bulkD+prioD > cfg.QueueLimit {
				t.Fatalf("queue depth %d above limit %d", bulkD+prioD, cfg.QueueLimit)
			}
			if _, bl := laneState(s, false); bulkD > bl {
				t.Fatalf("bulk lane depth %d above its %d slots", bulkD, bl)
			}
			if _, pl := laneState(s, true); cfg.PriorityAt > 0 && prioD > pl {
				t.Fatalf("priority lane depth %d above its %d slots", prioD, pl)
			}
		}
		// Drain wave by wave so every wave is counted; Close then has
		// nothing left to run.
		for s.Depth() > 0 {
			runWave()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		if attempted != len(tks)+rejected {
			t.Fatalf("attempted %d != accepted %d + rejected %d", attempted, len(tks), rejected)
		}
		var acc, deg, drop int64
		var wantCost float64
		for i, a := range tks {
			select {
			case <-a.tk.Done():
			default:
				t.Fatalf("ticket %d not completed by Close", i)
			}
			switch a.tk.Outcome() {
			case OutcomeAccurate:
				acc++
				wantCost += a.acc
			case OutcomeDegraded:
				deg++
				if !a.hasDeg {
					t.Fatalf("ticket %d reported degraded without a degraded body", i)
				}
				wantCost += a.deg
			case OutcomeDropped:
				drop++ // contributes zero cost by contract
				if a.hasDeg {
					t.Fatalf("ticket %d with a degraded body was dropped", i)
				}
			}
			if lat := a.tk.WaveLatency(); lat < 1 {
				t.Fatalf("ticket %d wave latency %d < 1", i, lat)
			}
		}
		tot := s.Totals()
		if tot.Completed != int64(len(tks)) || tot.Accurate != acc || tot.Degraded != deg || tot.Dropped != drop {
			t.Fatalf("totals %+v disagree with tickets %d/%d/%d over %d", tot, acc, deg, drop, len(tks))
		}
		if waveAcc != tot.Accurate || waveApx != tot.Degraded || waveDrop != tot.Dropped {
			t.Fatalf("waves decided %d/%d/%d, totals %d/%d/%d", waveAcc, waveApx, waveDrop, tot.Accurate, tot.Degraded, tot.Dropped)
		}
		if tot.Rejected != int64(rejected) {
			t.Fatalf("rejected total %d, want %d", tot.Rejected, rejected)
		}
		if tot.Priority != acceptedPrio {
			t.Fatalf("Totals.Priority %d, want %d premium requests accepted", tot.Priority, acceptedPrio)
		}
		rep := s.Energy()
		want := sig.DefaultActiveWatts * wantCost * 1e-9
		if math.Abs(rep.Joules-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("modeled %.12f J, want %.12f J from declared costs (dropped must charge 0)",
				rep.Joules, want)
		}
	})
}

// laneState reads one lane's current depth and slot share.
func laneState(s *Server, prio bool) (depth, limit int) {
	bulkD, prioD := s.LaneDepths()
	if prio {
		return prioD, s.lanes[lanePriority].limit
	}
	return bulkD, s.lanes[laneBulk].limit
}
