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

	// req is the queued request and lane the admission lane holding it.
	// Both are the server's alone: Submit writes them before the ticket is
	// queued, finish (or discardTicket) clears them before the server's
	// reference goes, and no accessor reads them.
	req  Request
	lane int
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
// read and write when they run: the ticket, which holds the bodies, and the
// outcome the body that ran left — OutcomeDropped until one does. The
// wave's end reads the slot's outcome, never the ticket's: a body resolves
// its ticket, and from then on the ticket is the caller's. approx is the
// slot's prebuilt degraded closure, which stage hands the spec for a request
// that has a Degraded body and withholds from one that has not.
type slabSlot struct {
	tk      *Ticket
	outcome atomic.Int32
	approx  func()
}

// waveSlab is the submission unit: serveSlabSize slots and the matching
// prebuilt TaskSpecs whose closures capture their slot by pointer. Filling
// slot i costs one ticket store and the spec's five per-request fields — no
// closure or spec construction. srv is the server the slab is staged on
// (slabs are pooled package-wide), which the closures resolve through. A
// slab lives one wave: its wave's end recycles it.
type waveSlab struct {
	n     int
	srv   *Server
	slots [serveSlabSize]slabSlot
	specs [serveSlabSize]sig.TaskSpec
}

// newWaveSlab prebuilds both closures of every slot once: they are paid
// here, then amortized over every wave the slab serves. Each resolves its
// request the moment its body returns.
func newWaveSlab() *waveSlab {
	sl := &waveSlab{}
	for i := range sl.slots {
		slot := &sl.slots[i]
		slot.outcome.Store(int32(OutcomeDropped))
		sl.specs[i].Fn = func() {
			slot.tk.req.Handler()
			sl.srv.bodyEnd(slot, OutcomeAccurate)
		}
		slot.approx = func() {
			slot.tk.req.Degraded()
			sl.srv.bodyEnd(slot, OutcomeDegraded)
		}
	}
	return sl
}

// bodyEnd resolves a request at the end of the body that served it, on the
// goroutine that ran it, stamped through the WaveClock then. The slot keeps
// the outcome for the wave's report before the ticket is published: after
// that the caller may Release it and a concurrent Submit re-draw it.
//
//siglint:noalloc
func (s *Server) bodyEnd(slot *slabSlot, o Outcome) {
	slot.outcome.Store(int32(o))
	s.resolve(slot.tk, o, s.wave.Load(), s.clock.Now().UnixNano()) //siglint:allocok clock seam: one virtual read behind the WaveClock interface
}

// stage writes one admitted request into the next slot of the wave's open
// slab, submitting the slab to the runtime the moment it fills. Requests of
// any declared cost share the stream, so tasks reach the policy in admission
// order. Called from runWave under waveMu.
//
//siglint:noalloc
func (s *Server) stage(tk *Ticket) {
	if s.cur == nil {
		s.cur = slabPool.Get().(*waveSlab)
		s.cur.srv = s
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

// submitSlab hands the open slab's filled specs to the runtime and lists the
// slab for its wave's end.
//
//siglint:noalloc
func (s *Server) submitSlab() {
	sl := s.cur
	s.cur = nil
	s.rt.SubmitBatch(s.grp, sl.specs[:sl.n]) //siglint:allocok crosses into sig, where noalloc has no cross-package facts; SubmitBatch is //siglint:noalloc there and TestServeSubmitAllocs holds the path to 0 allocs
	s.slabs = append(s.slabs, sl)            //siglint:allocok amortized growth of the reused slab list
}

// endSlabs is the slab stream's wave end. It reports the wave from the
// outcomes its bodies left in their slots, resolves each slot no body ran
// for as the policy's drop, and returns every slab to the pool. WaitPhase
// has drained the wave's group: by now no closure of its slabs can still
// run.
//
//siglint:noalloc
func (s *Server) endSlabs(rep *WaveReport, wave, nowNs int64) {
	for _, sl := range s.slabs {
		for j := range sl.n {
			slot := &sl.slots[j]
			switch Outcome(slot.outcome.Load()) {
			case OutcomeAccurate:
				rep.Accurate++
			case OutcomeDegraded:
				rep.Degraded++
			default:
				rep.Dropped++
				s.resolve(slot.tk, OutcomeDropped, wave, nowNs)
			}
			slot.tk = nil
			slot.outcome.Store(int32(OutcomeDropped))
		}
		sl.n, sl.srv = 0, nil
		slabPool.Put(sl)
	}
	clear(s.slabs)
	s.slabs = s.slabs[:0]
}
