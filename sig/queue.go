package sig

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultQueueCapacity is the per-worker run-queue capacity used when
// Config.QueueCapacity is zero.
const DefaultQueueCapacity = 256

// ring is one worker's bounded run queue. Producers are any submitting
// goroutine (sharded by the task's per-group Seq); consumers are the owning
// worker plus stealing workers. head/tail are atomics so emptiness can be
// probed without the lock (parking heuristics, backpressure rechecks); all
// mutations happen under mu.
type ring struct {
	mu   sync.Mutex
	head atomic.Uint64
	tail atomic.Uint64
	mask uint64
	buf  []*Task
	// wakeAt is the head position from which a pop wakes sleeping submitters.
	wakeAt atomic.Uint64
	// Pad to a cache line so neighboring rings do not false-share.
	_ [16]byte
}

func newRing(capacity int) *ring {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &ring{buf: make([]*Task, c), mask: uint64(c - 1)}
}

func (r *ring) empty() bool { return r.tail.Load() == r.head.Load() }

// push appends one task; it reports false when the ring is full.
//
//siglint:noalloc
func (r *ring) push(t *Task) bool {
	r.mu.Lock()
	tail := r.tail.Load()
	if tail-r.head.Load() > r.mask {
		r.mu.Unlock()
		return false
	}
	r.buf[tail&r.mask] = t
	r.tail.Store(tail + 1)
	r.mu.Unlock()
	return true
}

// pushN appends a prefix of ts bounded by the free space and returns how
// many were enqueued, preserving ts order. One lock covers the whole chunk.
//
//siglint:noalloc
func (r *ring) pushN(ts []*Task) int {
	r.mu.Lock()
	tail := r.tail.Load()
	space := int(r.mask + 1 - (tail - r.head.Load()))
	n := len(ts)
	if n > space {
		n = space
	}
	for i := 0; i < n; i++ {
		r.buf[(tail+uint64(i))&r.mask] = ts[i]
	}
	r.tail.Store(tail + uint64(n))
	r.mu.Unlock()
	return n
}

// popN moves up to len(dst) tasks into dst in FIFO order and returns the
// count.
func (r *ring) popN(dst []*Task) int {
	if r.empty() {
		return 0
	}
	r.mu.Lock()
	head := r.head.Load()
	n := int(r.tail.Load() - head)
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		idx := (head + uint64(i)) & r.mask
		dst[i] = r.buf[idx]
		r.buf[idx] = nil
	}
	r.head.Store(head + uint64(n))
	r.mu.Unlock()
	return n
}

// segment is the dispatch lane of a taskwait flush. The flushed window is
// already in memory and already counted in its group's pending, so bounding
// it bounds nothing: instead of copying it through the rings under
// backpressure, the flusher publishes the slice once and the workers — and
// the flusher itself, while it waits (help) — claim chunks of it by counting
// remaining down. A claim is a compare-and-swap of
// remaining from r to r-k, and the chunk it grants — the k tasks that end r
// from the end of tasks — is computed from r alone; tasks is read only after
// the swap succeeded. A worker that loaded r, stalled across any number of
// flushes and then swaps successfully therefore holds a valid claim on
// whatever segment is current, and one whose swap fails has read nothing: no
// generation tag is needed, and a stale claim is impossible. Every task in a
// segment is decided: a claimer need not be a worker.
type segment struct {
	// owned is held by one flush from acquire until the last claimed chunk
	// has been copied out of tasks; a flush that finds it taken falls back
	// to the rings (drain) or leaves the buffer alone (Flush).
	owned atomic.Bool
	// remaining is the claim cursor: the unclaimed tasks are the last
	// remaining of tasks. Zero between flushes.
	remaining atomic.Int64
	// uncopied counts the tasks not yet copied out by their claimer; the
	// claimer that takes it to zero releases the segment.
	uncopied atomic.Int64
	// tasks is the published window and scratch the pooled slice the flush
	// drew for it (its backing array, unless the policy allocated its own).
	// Written by the owner before remaining is stored, read only under a
	// successful claim.
	tasks   []*Task
	scratch *[]*Task
}

// sched is the dispatch layer: one ring per worker and one segment for
// taskwait flushes, a wake semaphore for parked workers, and a backpressure
// condition used only when every ring is full. No scheduler lock is ever
// held while a submitter blocks, so Stats, Energy and Group stay responsive
// under saturation.
type sched struct {
	rings  []*ring
	parked atomic.Int32
	wake   chan struct{}
	done   chan struct{}

	// The claim cursor is written once per chunk; the pads keep it off the
	// lines the submit path reads (parked above, spaceWaiters below).
	_   [64]byte
	seg segment
	_   [64]byte

	// Backpressure path: submitters that find every ring full sleep on
	// spaceC; spaceWaiters tells the workers someone does, and they broadcast
	// once per half ring drained (ring.wakeAt), not per chunk. asleep —
	// submitters in Wait or on their way back from it — and wakes, how often
	// one was woken, belong to spaceMu. DESIGN.md argues the liveness.
	spaceWaiters atomic.Int32
	spaceMu      sync.Mutex
	spaceC       *sync.Cond
	asleep       int
	wakes        int
}

func newSched(workers, queueCap int) *sched {
	s := &sched{
		rings: make([]*ring, workers),
		wake:  make(chan struct{}, workers),
		done:  make(chan struct{}),
	}
	for i := range s.rings {
		s.rings[i] = newRing(queueCap)
	}
	s.spaceC = sync.NewCond(&s.spaceMu)
	return s
}

// tryPush offers t to the shard selected by its Seq, spilling to the other
// rings when the preferred one is full.
//
//siglint:noalloc
func (s *sched) tryPush(t *Task) bool {
	n := len(s.rings)
	start := int(t.Seq) % n
	for i := 0; i < n; i++ {
		if s.rings[(start+i)%n].push(t) {
			return true
		}
	}
	return false
}

// enqueue places t on some ring, blocking on the backpressure condition when
// every ring is full. It never holds a lock while blocked. A newcomer queues
// behind whoever sleeps or is on the way back from a wake instead of taking
// the freed slots from under them, and whoever gets in passes the wake on.
//
//siglint:noalloc
func (s *sched) enqueue(t *Task) {
	if s.spaceWaiters.Load() == 0 && s.tryPush(t) {
		s.wakeOne()
		return
	}
	s.spaceWaiters.Add(1)
	s.spaceMu.Lock()
	for woken := false; ; woken = true {
		if woken || s.asleep == 0 {
			s.arm()
			if s.tryPush(t) {
				break
			}
		}
		s.asleep++
		s.spaceC.Wait()
		s.asleep--
		s.wakes++
	}
	if s.asleep > 0 {
		s.spaceC.Broadcast()
	}
	s.spaceMu.Unlock()
	s.spaceWaiters.Add(-1)
	s.wakeOne()
}

// arm sets every ring's wakeAt half a ring ahead of its head, under spaceMu
// and before the push that may fail: a ring found full afterwards holds the
// half ring that takes its head there.
//
//siglint:noalloc
func (s *sched) arm() {
	for _, r := range s.rings {
		r.wakeAt.Store(r.head.Load() + (r.mask+1)/2)
	}
}

// enqueueBatch places every task of ts in order, one lock acquisition per
// contiguous chunk. It does not stripe: the ring the first task's Seq
// selects takes everything that fits — a whole 32-task window lands
// on one ring — and the next ring is only tried for what did not fit, so the
// siblings get their share by stealing. (Capping each chunk at
// ceil(len/rings) was measured and was not faster: single_gtb's wave p50
// read slower in 8 of 10 alternating pairs, by ~0.2 %.) Order is preserved
// within a chunk and chunks are enqueued in order, so a window's dispatch
// order is FIFO (exactly FIFO with one worker). Ownership of every task
// transfers to whoever runs it — a worker, or a helping taskwait — and
// retires it in runGroup, a Perforation drop included.
//
//siglint:noalloc
func (s *sched) enqueueBatch(ts []*Task) {
	n := len(s.rings)
	shard := 0
	if len(ts) > 0 {
		shard = int(ts[0].Seq) % n
	}
	i := 0
	for i < len(ts) {
		pushed := false
		for j := 0; j < n && s.spaceWaiters.Load() == 0; j++ {
			if k := s.rings[(shard+j)%n].pushN(ts[i:]); k > 0 {
				i += k
				shard = (shard + j + 1) % n
				pushed = true
				break
			}
		}
		if pushed {
			continue
		}
		// All rings full, or someone asleep on them: wake the pool and fall
		// back to the blocking path for the next task, then resume chunks.
		s.wakeAll(len(s.rings))
		s.enqueue(ts[i])
		i++
	}
	s.wakeAll(len(ts))
}

// wakeOne hands one wake token to the parked pool, if anyone is parked.
//
//siglint:noalloc
func (s *sched) wakeOne() {
	if s.parked.Load() > 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// wakeAll hands up to n wake tokens out.
//
//siglint:noalloc
func (s *sched) wakeAll(n int) {
	p := int(s.parked.Load())
	if p < n {
		n = p
	}
	for i := 0; i < n; i++ {
		select {
		case s.wake <- struct{}{}:
		default:
			return
		}
	}
}

// signalSpace lets sleeping submitters, if there are any, retry and hands
// them the processor: Broadcast makes one of them this P's next goroutine, so
// yielding runs it now instead of after the worker's chunk. The lock is taken around Broadcast so a
// waiter between its failed push and its Wait (it holds spaceMu throughout)
// cannot miss the signal; re-arming keeps the next signal half a ring away.
//
//siglint:noalloc
func (s *sched) signalSpace() {
	if s.spaceWaiters.Load() == 0 {
		return
	}
	s.spaceMu.Lock()
	if s.asleep == 0 {
		s.spaceMu.Unlock()
		return
	}
	s.spaceC.Broadcast()
	s.arm()
	s.spaceMu.Unlock()
	runtime.Gosched()
}

// pop is r.popN under the wake rule: the pop that takes r's head to wakeAt
// signals. Both only grow, so a stale wakeAt adds a signal, never loses one.
func (s *sched) pop(r *ring, dst []*Task) int {
	n := r.popN(dst)
	if n > 0 && int64(r.head.Load()-r.wakeAt.Load()) >= 0 {
		s.signalSpace()
	}
	return n
}

// acquireSegment takes the flush segment for one publication; it reports
// false while an earlier flush is still being claimed.
//
//siglint:noalloc
func (s *sched) acquireSegment() bool {
	return s.seg.owned.CompareAndSwap(false, true)
}

// releaseSegment gives the acquired segment back with nothing published.
//
//siglint:noalloc
func (s *sched) releaseSegment() { s.seg.owned.Store(false) }

// publish hands the decided window ts to the workers through the acquired
// segment and wakes them. Ownership of ts, of every task in it and of the
// pooled scratch transfers to the workers; the last claimer recycles
// scratch.
//
//siglint:poolput
//siglint:noalloc
func (s *sched) publish(ts []*Task, scratch *[]*Task) {
	seg := &s.seg
	seg.tasks, seg.scratch = ts, scratch
	seg.uncopied.Store(int64(len(ts)))
	seg.remaining.Store(int64(len(ts)))
	s.wakeAll(len(ts))
}

// claim moves the next chunk of the published segment into dst and returns
// its size, 0 when nothing is published or everything is claimed. The chunk
// is guided — remaining/(2·claimers), at least 1 and at most len(dst)
// (claimBatchSize from the workers and help), the claimers being the workers
// and the goroutine in the taskwait (help) — so claims are large while the
// window is long and shrink toward its end: the claimers finish a short wave
// of uneven bodies together instead of one of them holding the last full
// batch.
//
//siglint:poolput
//siglint:noalloc
func (rt *Runtime) claim(dst []*Task) int {
	seg := &rt.sched.seg
	for {
		rem := seg.remaining.Load()
		if rem == 0 {
			return 0
		}
		k := rem / int64(2*(rt.workers+1))
		if k < 1 {
			k = 1
		} else if k > int64(len(dst)) {
			k = int64(len(dst))
		}
		if !seg.remaining.CompareAndSwap(rem, rem-k) {
			continue
		}
		lo := int64(len(seg.tasks)) - rem
		copy(dst, seg.tasks[lo:lo+k])
		if seg.uncopied.Add(-k) == 0 {
			scratch := seg.scratch
			seg.tasks, seg.scratch = nil, nil
			seg.owned.Store(false)
			rt.pools.putDispatch(scratch)
		}
		return int(k)
	}
}

// anyQueued reports whether any ring or the segment holds work (lock-free
// probe).
func (s *sched) anyQueued() bool {
	if s.seg.remaining.Load() > 0 {
		return true
	}
	for _, r := range s.rings {
		if !r.empty() {
			return true
		}
	}
	return false
}

// workerSpinRounds is how many empty scan rounds a worker tolerates (yielding
// between rounds) before parking on the wake semaphore.
const workerSpinRounds = 4

// popBatchSize bounds how many tasks a worker pops per ring lock
// acquisition, and claimBatchSize how many it or the taskwait claims from the
// flush segment at once. A segment claim is one compare-and-swap whatever its
// size, and the guided rule already shrinks it toward a wave's end, so its
// cap only bounds the head of a long wave: at two workers a claim exceeds 16
// tasks only while more than 96 remain. A ring pop holds the ring's lock
// across its copy and competes with the producer, so it stays short.
const (
	popBatchSize   = 16
	claimBatchSize = 64
)

// worker is the scheduling loop of one worker goroutine: drain the own ring
// in batches, claim from the flush segment when it is empty, steal from
// siblings when that is empty too, spin briefly, then park. Every other turn
// the segment goes before the ring: a stream that keeps the ring full would
// otherwise hold a taskwait's window back for as long as it lasts.
func (rt *Runtime) worker(id int) {
	defer rt.wg.Done()
	s := rt.sched
	own := s.rings[id]
	var batch [claimBatchSize]*Task
	idle := 0
	for turn := 0; ; turn++ {
		var n int
		if turn&1 == 0 {
			if n = s.pop(own, batch[:popBatchSize]); n == 0 {
				n = rt.claim(batch[:])
			}
		} else if n = rt.claim(batch[:]); n == 0 {
			n = s.pop(own, batch[:popBatchSize])
		}
		if n == 0 {
			n = rt.steal(id, batch[:popBatchSize])
		}
		if n > 0 {
			idle = 0
			rt.runChunk(id, batch[:n])
			clear(batch[:n])
			continue
		}
		s.signalSpace() // the rings are dry: whoever sleeps on them need not
		if idle < workerSpinRounds {
			idle++
			runtime.Gosched()
			continue
		}
		s.parked.Add(1)
		if s.anyQueued() {
			s.parked.Add(-1)
			idle = 0
			continue
		}
		select {
		case <-s.wake:
			s.parked.Add(-1)
			idle = 0
		case <-s.done:
			s.parked.Add(-1)
			return
		}
	}
}

// steal claims up to half a batch from a sibling ring, scanning from the
// next worker onward so victims rotate.
func (rt *Runtime) steal(id int, dst []*Task) int {
	s := rt.sched
	n := len(s.rings)
	limit := len(dst) / 2
	if limit == 0 {
		limit = 1
	}
	for j := 1; j < n; j++ {
		if got := s.pop(s.rings[(id+j)%n], dst[:limit]); got > 0 {
			return got
		}
	}
	return 0
}
