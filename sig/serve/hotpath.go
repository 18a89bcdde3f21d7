package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/sig"
)

// The serving admission hot path. A steady-state request allocates nothing:
// the Ticket is drawn from a pool, carries its request through the queue and
// is refcounted back, admitted requests are staged, in admission order, into
// one stream of slabs of prebuilt TaskSpecs (one slab draw per serveSlabSize
// requests instead of per-request spec construction), and every per-wave
// scratch slice — admit's batch, the submitted-slab list — is reused across
// waves. The slabs feed sig's SubmitBatch slab ingest, so the batch fast path
// PR 2 built for the scheduler now runs end-to-end from Submit.

// serveSlabSize is how many requests one slab carries — matched to sig's
// internal task slab size so one serve slab maps onto one task slab.
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
// request served by the wave after its arrival has latency 1.
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
// wave completed and its lazily-created channel (if any) has been retired.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Ticket tracks one admitted request through its wave. Tickets are pooled:
// the server holds one reference until the request's wave resolves, the
// caller holds the other. Calling Release returns the caller's reference so
// the Ticket can be recycled; it is optional (an unreleased Ticket is
// simply garbage collected) but must be the caller's last use of the
// Ticket, at most once. It need not wait for Done: a caller that gives up
// on a queued request releases at once, and the Ticket is recycled when the
// server resolves it. Every accessor reads atomically, so even a buggy late
// read on a recycled Ticket is race-free (it returns the next request's
// values, not torn memory).
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

	// req is the queued request and lane the admission lane holding it.
	// Both are the server's alone: Submit writes them before the ticket is
	// queued, finish (or discardTicket) clears them before the server's
	// reference goes, and no accessor reads them.
	req  Request
	lane int
}

// Done is closed when the request's wave completed. The channel is created
// lazily: tickets polled through Outcome/Wait after completion never pay
// for one.
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

// Wait blocks until the request's wave completed and returns the outcome.
func (tk *Ticket) Wait() Outcome {
	<-tk.Done()
	return Outcome(tk.outcome.Load())
}

// Outcome returns how the request was served; valid once Done is closed.
func (tk *Ticket) Outcome() Outcome { return Outcome(tk.outcome.Load()) }

// WaveLatency is the request's queueing+service delay in waves (≥ 1);
// valid once Done is closed. It is the deterministic latency metric of the
// wave-driven studies.
func (tk *Ticket) WaveLatency() int { return int(tk.doneWave.Load() - tk.enqWave.Load() + 1) }

// Latency is the wall-clock submit-to-completion delay; valid once Done is
// closed.
func (tk *Ticket) Latency() time.Duration {
	return time.Duration(tk.finishedNs.Load() - tk.enqueuedNs.Load())
}

// Release returns the caller's reference to the Ticket pool. Optional — an
// unreleased Ticket is garbage collected normally — but steady-state
// callers that Release after reading their outcome make the admission path
// allocation-free. Must be the caller's last use of the Ticket, at most
// once, with no accessor calls afterwards; before Done it abandons the
// request to the server, whose own reference keeps the Ticket out of the
// pool until the wave resolves it.
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

// complete publishes the wave resolution: latency metadata first, then the
// done edge (flag + channel close) under mu so Done's lazy channel cannot
// miss the close.
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

var (
	ticketPool sync.Pool // of *Ticket
	// slabPool recycles waveSlabs; a miss prebuilds one.
	slabPool = sync.Pool{New: func() any { return newWaveSlab() }}
)

// getTicket draws a Ticket with both references (server + caller) live and
// the outcome preset to Dropped — a request shed without running any body
// needs no store at resolution time.
//
//siglint:poolget
//siglint:noalloc
func getTicket(nowNs int64) *Ticket {
	tk, _ := ticketPool.Get().(*Ticket)
	if tk == nil {
		tk = &Ticket{} //siglint:allocok pool miss: steady state always hits the pool
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
	tk.req, tk.lane = Request{}, 0
	tk.refs.Store(1)
	tk.release()
}

// slabSlot carries the per-request state a slab spec's prebuilt closures
// read when they run: the ticket, which holds the bodies and takes the
// outcome mark. approx is the slot's prebuilt degraded closure, which stage
// hands the spec for a request that has a Degraded body and withholds from
// one that has not.
type slabSlot struct {
	tk     *Ticket
	approx func()
}

// waveSlab is the submission unit: serveSlabSize slots and the matching
// prebuilt TaskSpecs whose closures capture their slot by pointer. Filling
// slot i costs one ticket store and the spec's five per-request fields — no
// closure or spec construction. Slabs are recycled wave-synchronously:
// WaitPhase guarantees every task of the wave has completed before
// recycleSlabs runs, so no completion counting is needed.
type waveSlab struct {
	n     int
	slots [serveSlabSize]slabSlot
	specs [serveSlabSize]sig.TaskSpec
}

// newWaveSlab prebuilds both closures of every slot once: they are paid
// here, then amortized over every wave the slab serves.
func newWaveSlab() *waveSlab {
	sl := &waveSlab{}
	for i := range sl.slots {
		slot := &sl.slots[i]
		sl.specs[i].Fn = func() {
			slot.tk.req.Handler()
			slot.tk.outcome.Store(int32(OutcomeAccurate))
		}
		slot.approx = func() {
			slot.tk.req.Degraded()
			slot.tk.outcome.Store(int32(OutcomeDegraded))
		}
	}
	return sl
}

// stage writes one admitted request into the next slot of the wave's open
// slab, submitting the slab to the fleet the moment it fills. Requests of
// any declared cost share the stream, so tasks reach the policy in admission
// order. Called from runWave under waveMu.
//
//siglint:noalloc
func (s *Server) stage(tk *Ticket) {
	if s.cur == nil {
		s.cur = slabPool.Get().(*waveSlab)
	}
	sl := s.cur
	slot, spec := &sl.slots[sl.n], &sl.specs[sl.n]
	slot.tk = tk
	var approx func()
	if tk.req.Degraded != nil {
		approx = slot.approx
	}
	sv := tk.req.Significance
	if sv <= 0 {
		sv = -1 // batch spelling of the special 0.0
	}
	spec.Approx, spec.Significance = approx, sv
	spec.HasCost = tk.req.CostAccurate > 0
	spec.CostAccurate = tk.req.CostAccurate
	spec.CostApprox = tk.req.CostDegraded
	if sl.n++; sl.n == serveSlabSize {
		s.submitSlab()
	}
}

// submitSlab hands the open slab's filled specs to the fleet and lists the
// slab for recycling after the wave.
//
//siglint:noalloc
func (s *Server) submitSlab() {
	sl := s.cur
	s.cur = nil
	s.fleet.SubmitBatch(s.grp, sl.specs[:sl.n]) //siglint:allocok crosses into sig/shard, where siglint cannot follow; TestServeSubmitAllocs holds the path to 0 allocs
	s.waveSlabs = append(s.waveSlabs, sl)       //siglint:allocok amortized growth of the reused per-wave slab list
}

// recycleSlabs returns the wave's submitted slabs to the pool. Callable
// only after WaitPhase: every task of the wave has completed, so no
// prebuilt closure can still run against a cleared slot.
//
//siglint:noalloc
func (s *Server) recycleSlabs() {
	for i, sl := range s.waveSlabs {
		for j := 0; j < sl.n; j++ {
			sl.slots[j].tk = nil // drop the ticket ref
		}
		sl.n = 0
		slabPool.Put(sl)
		s.waveSlabs[i] = nil
	}
	s.waveSlabs = s.waveSlabs[:0]
}
