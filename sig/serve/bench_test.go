package serve

import (
	"testing"
	"time"
)

// Microbenchmarks for the serving admission hot path: Submit + RunWave with
// trivial bodies and declared costs, so the measured time is the serving
// layer's own overhead (ticket management, wave batch assembly,
// runtime ingest), not request execution. The numbers a PR is judged on
// are serve.submit_ns and serve.runwave_ns_per_req in `go run ./benchmark`.

// benchWave is the admitted batch size one benchmark wave carries: the same
// shape as the studies' overload waves (base 8 at 4x).
const benchWave = 32

// newBenchServer sizes a server so a benchWave of declared-cost requests
// exactly fills a wave's budget, on a frozen clock (see frozen): every wave
// admits one full batch, the steady-state shape of the overload step.
// Shared with the hot-path tests.
func newBenchServer(tb testing.TB) *Server {
	tb.Helper()
	s, err := New(frozen(Config{Workers: 2, QueueLimit: 4 * benchWave}, benchWave*costAcc))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// benchRequest is the steady-state request shape: declared costs, trivial
// bodies, mid-range significance so the policy genuinely decides it.
func benchRequest() Request {
	return Request{
		Significance: 0.5,
		Handler:      func() {},
		Degraded:     func() {},
		CostAccurate: costAcc,
		CostDegraded: costDeg,
	}
}

// recycleTickets returns the collected tickets of a completed wave to the
// pool and resets the collection slice.
func recycleTickets(tks []*Ticket) []*Ticket {
	for i, tk := range tks {
		tk.Release()
		tks[i] = nil
	}
	return tks[:0]
}

// BenchmarkServeAdmission measures the per-request serving overhead on the
// steady-state path: one benchmark op is one request through Submit, a
// shared RunWave and ticket resolution. This is the headline number of the
// serve_hotpath ledger entry.
func BenchmarkServeAdmission(b *testing.B) {
	s := newBenchServer(b)
	defer s.Close()
	req := benchRequest()
	tks := make([]*Ticket, 0, benchWave)
	// Warm the pools and the controller: a few waves at the steady shape.
	for w := 0; w < 8; w++ {
		for i := 0; i < benchWave; i++ {
			tk, err := s.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			tks = append(tks, tk)
		}
		s.RunWave()
		tks = recycleTickets(tks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for submitted := 0; submitted < b.N; {
		n := benchWave
		if rem := b.N - submitted; rem < n {
			n = rem
		}
		for i := 0; i < n; i++ {
			tk, err := s.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			tks = append(tks, tk)
		}
		s.RunWave()
		tks = recycleTickets(tks)
		submitted += n
	}
}

// BenchmarkServeSubmit isolates the caller-side admission overhead: ticket
// setup plus the queue append, with wave execution excluded
// from the timer. This is the per-request cost a client pays to enter the
// server (serve.submit_ns in the benchmark's traced run).
func BenchmarkServeSubmit(b *testing.B) {
	s := newBenchServer(b)
	defer s.Close()
	req := benchRequest()
	limit := 4 * benchWave // the bench server's QueueLimit
	tks := make([]*Ticket, 0, limit)
	for w := 0; w < 8; w++ {
		for i := 0; i < benchWave; i++ {
			tk, err := s.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			tks = append(tks, tk)
		}
		s.RunWave()
		tks = recycleTickets(tks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for submitted := 0; submitted < b.N; {
		n := limit
		if rem := b.N - submitted; rem < n {
			n = rem
		}
		for i := 0; i < n; i++ {
			tk, err := s.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			tks = append(tks, tk)
		}
		b.StopTimer()
		for s.Depth() > 0 {
			s.RunWave()
		}
		tks = recycleTickets(tks)
		b.StartTimer()
		submitted += n
	}
}

// BenchmarkServeAdmit isolates the admit pop — batch formation into the
// reused []*Ticket buffer, the regression guard of that reuse. One op is one
// admit of benchWave requests off a pre-filled lane; the timer runs over a
// window of admitWindow admits, until the lane is drained, and is stopped
// only to put the admitted requests back. b.N scales on timed time alone, so
// whatever is untimed must stay small beside an admit: a timer toggle around
// every op (two reads of the memory statistics) plus a wave of fresh Submits
// per op could not finish a time-based -benchtime, and a full ticket
// lifecycle per admitted request (≈ 7 µs a wave against a 0.3 µs admit) takes
// most of a minute. So the same requests cycle through the lane, nothing
// admitted is dropped on the floor, and every one is resolved once through
// the server's own finish when the run ends: 0 B/op.
func BenchmarkServeAdmit(b *testing.B) {
	const admitWindow = 64
	s, err := New(Config{
		Workers:    2,
		QueueLimit: admitWindow * benchWave,
		WaveBudget: benchWave * costAcc,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	req := benchRequest()
	for i := 0; i < admitWindow*benchWave; i++ {
		tk, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		tk.Release() // the caller's last use: finish alone recycles the ticket
	}
	now := time.Now()
	held := make([]*Ticket, 0, admitWindow*benchWave)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(admitWindow, b.N-done)
		for i := 0; i < n; i++ {
			batch := s.admit(now, 1, false)
			if len(batch) != benchWave {
				b.Fatalf("admitted %d of %d", len(batch), benchWave)
			}
			held = append(held, batch...) // the batch buffer is admit's until the next admit
		}
		b.StopTimer()
		s.mu.Lock()
		l := &s.lanes[laneBulk]
		for _, tk := range held {
			l.cost.add(reqCosts(&tk.req))
		}
		l.q = append(l.q, held...)
		s.mu.Unlock()
		held = held[:0]
		b.StartTimer()
		done += n
	}
	b.StopTimer()
	for s.Depth() > 0 {
		for _, tk := range s.admit(now, 1, false) {
			s.finish(tk, 0, 0)
		}
	}
}
