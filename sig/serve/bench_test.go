package serve

import (
	"testing"
	"time"
)

// Microbenchmarks for the serving admission hot path: Submit + RunWave with
// trivial bodies and declared costs, so the measured time is the serving
// layer's own overhead (ticket/pending management, wave batch assembly,
// runtime ingest), not request execution. The numbers a PR is judged on
// are serve.submit_ns and serve.runwave_ns_per_req in `go run ./benchmark`.

// benchWave is the admitted batch size one benchmark wave carries: the same
// shape as the studies' overload waves (base 8 at 4x).
const benchWave = 32

// newBenchServer sizes a server so a benchWave of declared-cost requests
// exactly fills a wave's budget: every wave admits one full batch, the
// steady-state shape of the overload step. Shared with the hot-path tests.
func newBenchServer(tb testing.TB) *Server {
	tb.Helper()
	s, err := New(Config{
		Workers:    2,
		QueueLimit: 4 * benchWave,
		WaveBudget: benchWave * costAcc,
	})
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
// and pending setup plus the queue append, with wave execution excluded
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

// BenchmarkServeAdmit isolates the admit pop: Submit a wave's worth outside
// the timer, then time only the batch formation — the []*pending buffer
// reuse regression guard.
func BenchmarkServeAdmit(b *testing.B) {
	s := newBenchServer(b)
	defer s.Close()
	req := benchRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < benchWave; j++ {
			if _, err := s.Submit(req); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		batch := s.admit(time.Now(), s.Ratio())
		b.StopTimer()
		if len(batch) != benchWave {
			b.Fatalf("admitted %d of %d", len(batch), benchWave)
		}
		b.StartTimer()
	}
}
