package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/sig"
)

// The serving admission hot path. The server allocates nothing for a
// steady-state request: the Ticket is drawn from a pool, carries its request
// through the queue, carries its two body closures (built once, when the pool
// missed), and is refcounted back. Admitted requests are staged, in admission
// order, as one TaskSpec each into a spec buffer the server reuses, and every
// per-wave scratch slice — admit's batch, which both of a wave's admissions
// fill, the spec buffer, the per-request ran flags — is reused across waves.
// The specs feed sig's SubmitBatch slab ingest, so the batch fast path the
// scheduler has runs end-to-end from Submit. The caller's one allocation is
// Done's channel, made when it waits on a request that has not resolved yet
// (Wait does): one per such request, none for a ticket read after it resolved
// (TestServeWaitAllocs, TestServeSubmitAllocs).

// serveSlabSize is how many staged specs one SubmitBatch carries — matched
// to sig's internal task slab size so one submit maps onto one task slab.
const serveSlabSize = 64

// Admission lanes, as data: everything that tells one lane from another is a
// field of its lane, and Submit, admit, the expiry sweep, the backlog sums
// and the metrics iterate s.lanes instead of naming a queue. A wave drains
// the lanes from the highest index down — priority ahead of the bulk FIFO.
const (
	laneBulk     = 0
	lanePriority = 1
	laneCount    = 2
)

// laneNames are the lanes' metrics labels.
var laneNames = [laneCount]string{laneBulk: "bulk", lanePriority: "priority"}

// lane is one admission lane: its FIFO backlog, the declared costs of that
// backlog (so the load signal is O(1) in the queue length), the slots it
// owns outright (0 for an unconfigured priority lane: nothing is ever
// queued there) and its wave-latency histogram. q and cost are guarded by
// Server.mu; lat is lock-free.
type lane struct {
	q     []*Ticket
	cost  costSums
	limit int
	lat   latHist
}

// waveLatBuckets are the wave-latency histogram's upper bounds, in waves —
// the deterministic latency unit of the wave-driven serving layer. A
// request served by the first wave to start after its arrival has latency 1,
// and so has one served by the wave in flight when it arrived (through that
// wave's follow-on admission).
var waveLatBuckets = [...]int64{1, 2, 4, 8, 16, 32}

// latHist is one lane's wave-latency histogram: lock-free single-bucket
// increments at ticket resolution, cumulated only at export time
// (Prometheus buckets are cumulative). Tolerating torn cross-bucket reads
// during a scrape keeps the record path at two uncontended atomic adds.
type latHist struct {
	buckets [len(waveLatBuckets) + 1]atomic.Int64 // last bucket: +Inf
	sum     atomic.Int64
}

//siglint:noalloc
func (h *latHist) record(waves int64) {
	i := 0
	for i < len(waveLatBuckets) && waves > waveLatBuckets[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(waves)
}

// snapshot returns the cumulative bucket counts plus the total count and
// latency sum, in Prometheus histogram form.
func (h *latHist) snapshot() (cum [len(waveLatBuckets) + 1]int64, count, sum int64) {
	for i := range h.buckets {
		count += h.buckets[i].Load()
		cum[i] = count
	}
	return cum, count, h.sum.Load()
}

// closedChan is the pre-closed channel Done returns once a pooled Ticket's
// request resolved and its lazily-created channel (if any) has been retired.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Ticket tracks one admitted request to its resolution. Tickets are pooled:
// the server holds one reference until it resolves the request, the caller
// holds the other. Calling Release returns the caller's reference so the
// Ticket can be recycled; it is optional (an unreleased Ticket is simply
// garbage collected) but must be the caller's last use of the Ticket, at
// most once. It need not wait for Done: a caller that gives up on a queued
// request releases at once, and the Ticket is recycled when the server
// resolves it. Every accessor reads atomically, so even a buggy late read on
// a recycled Ticket is race-free (it returns the next request's values, not
// torn memory).
type Ticket struct {
	outcome   atomic.Int32
	completed atomic.Bool
	// refs counts the outstanding references (server + caller); the Ticket
	// returns to the pool when both are released.
	refs       atomic.Int32
	enqWave    atomic.Int64
	doneWave   atomic.Int64
	enqueuedNs atomic.Int64
	finishedNs atomic.Int64

	mu   sync.Mutex
	done chan struct{} // created lazily by Done; nil when nobody waited

	// req is the queued request and lane the admission lane holding it;
	// srv is the server whose wave staged it and slot its index in that
	// wave's admission order. All four are the server's alone: Submit
	// writes req and lane before the ticket is queued, Server.stage srv and
	// slot, finish (or discardTicket) clears them before the server's
	// reference goes, and no accessor reads them.
	req  Request
	lane int
	srv  *Server
	slot int

	// acc and deg are the request's task bodies, built once per Ticket by
	// newTicket: each runs the request's handler, then resolves it through
	// srv.bodyEnd.
	acc, deg func()
}

// newTicket builds a Ticket and its two body closures — paid at a pool
// miss, then amortized over every request the Ticket serves. Each closure
// resolves its request the moment its body returns.
func newTicket() *Ticket {
	tk := &Ticket{}
	tk.acc = func() {
		tk.req.Handler()
		tk.srv.bodyEnd(tk, OutcomeAccurate)
	}
	tk.deg = func() {
		tk.req.Degraded()
		tk.srv.bodyEnd(tk, OutcomeDegraded)
	}
	return tk
}

// Done is closed when the request resolved: a request that ran a body
// resolves the moment that body returns, on the goroutine that ran it, while
// the rest of its wave may still be running; one that ran none (the policy
// dropped it, its deadline lapsed in the queue) resolves at its wave's end.
// Either way Totals already count it. The channel is created lazily: tickets
// polled through Outcome/Wait after completion never pay for one.
func (tk *Ticket) Done() <-chan struct{} {
	if tk.completed.Load() {
		return closedChan
	}
	tk.mu.Lock()
	// Re-check under the lock: complete() marks done-ness under the same
	// lock, so a completion between the fast-path check and here cannot
	// leave us waiting on a channel nobody will close.
	if tk.completed.Load() {
		tk.mu.Unlock()
		return closedChan
	}
	if tk.done == nil {
		tk.done = make(chan struct{})
	}
	d := tk.done
	tk.mu.Unlock()
	return d
}

// Wait blocks until the request resolved (see Done) and returns the outcome.
func (tk *Ticket) Wait() Outcome {
	<-tk.Done()
	return Outcome(tk.outcome.Load())
}

// Outcome returns how the request was served; valid once Done is closed.
func (tk *Ticket) Outcome() Outcome { return Outcome(tk.outcome.Load()) }

// WaveLatency is the request's queueing+service delay in waves (≥ 1): the
// index of the wave that served it, less the wave its arrival queued for,
// plus one. Valid once Done is closed; it does not depend on where in its
// wave the request resolved, which is why it is the deterministic latency
// metric of the wave-driven studies.
func (tk *Ticket) WaveLatency() int { return int(tk.doneWave.Load() - tk.enqWave.Load() + 1) }

// Latency is the wall-clock delay from Submit to resolution, both read
// through the WaveClock: to the end of the body that served the request, or
// to its wave's end for one that ran no body. Valid once Done is closed.
func (tk *Ticket) Latency() time.Duration {
	return time.Duration(tk.finishedNs.Load() - tk.enqueuedNs.Load())
}

// Release returns the caller's reference to the Ticket pool. Optional — an
// unreleased Ticket is garbage collected normally — but steady-state
// callers that Release after reading their outcome make the admission path
// allocation-free. Must be the caller's last use of the Ticket, at most
// once, with no accessor calls afterwards; before Done it abandons the
// request to the server, whose own reference keeps the Ticket out of the
// pool until the server resolves it. A Release at Done may come while the
// request's wave is still running: the server reads nothing of a ticket
// after resolving it.
func (tk *Ticket) Release() { tk.release() }

// release drops one reference; the last one resets the Ticket and recycles
// it.
//
//siglint:noalloc
func (tk *Ticket) release() {
	if tk.refs.Add(-1) != 0 {
		return
	}
	tk.completed.Store(false)
	tk.enqWave.Store(0)
	tk.doneWave.Store(0)
	tk.finishedNs.Store(0)
	tk.mu.Lock()
	tk.done = nil
	tk.mu.Unlock()
	ticketPool.Put(tk)
}

// complete publishes the resolution: latency metadata first, then the done
// edge (flag + channel close) under mu so Done's lazy channel cannot miss
// the close.
//
//siglint:noalloc
func (tk *Ticket) complete(wave, nowNs int64) {
	tk.doneWave.Store(wave)
	tk.finishedNs.Store(nowNs)
	tk.mu.Lock()
	tk.completed.Store(true)
	if tk.done != nil {
		close(tk.done)
		tk.done = nil
	}
	tk.mu.Unlock()
}

var ticketPool sync.Pool // of *Ticket

// getTicket draws a Ticket with both references (server + caller) live and
// the outcome preset to Dropped — a request shed without running any body
// needs no store at resolution time.
//
//siglint:poolget
//siglint:noalloc
func getTicket(nowNs int64) *Ticket {
	tk, _ := ticketPool.Get().(*Ticket)
	if tk == nil {
		tk = newTicket() //siglint:allocok pool miss: steady state always hits the pool
	}
	tk.refs.Store(2)
	tk.outcome.Store(int32(OutcomeDropped))
	tk.enqueuedNs.Store(nowNs)
	return tk
}

// discardTicket recycles a ticket that was never handed out (a rejected
// Submit): both references are still ours, and the request goes with them.
//
//siglint:poolput
//siglint:noalloc
func discardTicket(tk *Ticket) {
	tk.req, tk.lane, tk.srv = Request{}, 0, nil
	tk.refs.Store(1)
	tk.release()
}

// bodyEnd resolves a request at the end of the body that served it, on the
// goroutine that ran it, stamped through the WaveClock then. The request's
// ran flag is set before the ticket is published: after that the caller may
// Release it and a concurrent Submit re-draw it, and the wave's end reads
// the flag, never the ticket.
//
//siglint:noalloc
func (s *Server) bodyEnd(tk *Ticket, o Outcome) {
	s.ran[tk.slot].Store(true)
	s.resolve(tk, o, s.wave.Load(), s.clock.Now().UnixNano()) //siglint:allocok clock seam: one virtual read behind the WaveClock interface
}

// stage appends admitted request i of the wave, in admission order, to the
// spec buffer as one TaskSpec whose bodies are the ticket's own closures,
// and hands the buffer to the runtime each time it holds serveSlabSize
// specs. Requests of any declared cost share the stream, so tasks reach the
// policy in admission order. Called from runBatch under waveMu.
//
//siglint:noalloc
func (s *Server) stage(tk *Ticket, i int) {
	tk.srv, tk.slot = s, i
	var approx func()
	if tk.req.Degraded != nil {
		approx = tk.deg
	}
	sv := tk.req.Significance
	if sv <= 0 {
		sv = -1 // batch spelling of the special 0.0
	}
	s.specs = append(s.specs, sig.TaskSpec{ //siglint:allocok amortized growth of the reused spec buffer
		Fn:           tk.acc,
		Approx:       approx,
		Significance: sv,
		HasCost:      tk.req.CostAccurate > 0,
		CostAccurate: tk.req.CostAccurate,
		CostApprox:   tk.req.CostDegraded,
	})
	if len(s.specs) == serveSlabSize {
		s.flush()
	}
}

// flush hands the staged specs to the runtime and empties the buffer;
// SubmitBatch copies what it needs, so the buffer is free at once.
//
//siglint:noalloc
func (s *Server) flush() {
	s.rt.SubmitBatch(s.grp, s.specs) //siglint:allocok crosses into sig, where noalloc has no cross-package facts; SubmitBatch is //siglint:noalloc there and TestServeSubmitAllocs holds the path to 0 allocs
	s.specs = s.specs[:0]
}

// endWave is the wave's end for its admitted batch, both admissions': each
// request no body ran for resolves as the policy's drop, and every flag
// resets. A set flag means the ticket is the caller's now, so it is never
// read. The wave's last WaitPhase has drained its group: by now no body of
// the wave can still run. The wave's
// outcome split is the runtime's to count (WaveReport.Stats).
//
//siglint:noalloc
func (s *Server) endWave(batch []*Ticket, wave, nowNs int64) {
	for i := range batch {
		if !s.ran[i].Load() {
			s.resolve(batch[i], OutcomeDropped, wave, nowNs)
		}
		s.ran[i].Store(false)
		batch[i] = nil
	}
}
