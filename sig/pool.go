package sig

import (
	"sync"
	"sync/atomic"
)

// Task recycling. Every task — one Submit or one spec of a SubmitBatch — is
// carved from a slab: a contiguous array of slabSize tasks recycled as a unit
// once all of them have completed, so the steady-state heap cost of a task is
// zero and a completion costs one add per run of same-slab tasks. A slab with
// tasks left to hand out is *open* and owned by the submitter holding it;
// between carves it rests in a sync.Pool, where Get and Put hit the same P's
// private slot. Handing out the last task *seals* it, and only a sealed slab
// can collect slabSize completions — the one recycling rule.

// slabSize is how many tasks one slab holds.
const slabSize = 64

// taskSlab is a contiguous block of tasks, each pointing back at it. used
// counts the tasks handed out and belongs to the submitter holding the open
// slab; done counts completions and belongs to the workers, on its own line.
type taskSlab struct {
	tasks [slabSize]Task
	used  int
	_     [56]byte
	done  atomic.Int32
}

// taskPools owns the recycled objects of a Runtime.
type taskPools struct {
	open     sync.Pool // of *taskSlab with tasks left to hand out; may be empty
	slabs    sync.Pool // of *taskSlab, all slabSize tasks completed
	dispatch sync.Pool // of *[]*Task, dispatch scratch
}

// init installs the miss paths: steady state always hits the pools.
func (p *taskPools) init() {
	p.slabs.New = func() any {
		s := new(taskSlab)
		for i := range s.tasks {
			s.tasks[i].slab = s
		}
		return s
	}
	p.dispatch.New = func() any {
		s := make([]*Task, 0, 4*slabSize)
		return &s
	}
}

// getDispatch returns an empty dispatch scratch slice.
//
//siglint:poolget
//siglint:noalloc
func (p *taskPools) getDispatch() *[]*Task {
	return p.dispatch.Get().(*[]*Task)
}

// putDispatch recycles a dispatch scratch after clearing its task pointers.
//
//siglint:poolput
//siglint:noalloc
func (p *taskPools) putDispatch(s *[]*Task) {
	clear(*s)
	*s = (*s)[:0]
	p.dispatch.Put(s)
}

// carve hands out up to n tasks (n >= 1) of one slab, to be filled by the
// caller and released one by one through release/releaseAll; every field but
// slab is stale. A request shorter than a slab is served from the caller's
// open slab — a stream of Submits or one-spec batches draws one slab per
// slabSize tasks — and gets fewer than n when that slab runs out first.
//
//siglint:poolget
//siglint:noalloc
//siglint:leakok a sealed slab is not put anywhere: it belongs to the completion count of the tasks it handed out
func (p *taskPools) carve(n int) []Task {
	var s *taskSlab
	if n < slabSize {
		s, _ = p.open.Get().(*taskSlab)
	}
	if s == nil {
		s = p.slabs.Get().(*taskSlab)
		s.used = 0
		s.done.Store(0)
	}
	lo, hi := s.used, min(s.used+n, slabSize)
	s.used = hi
	if hi < slabSize {
		p.open.Put(s) // from here on the next carver's
	}
	return s.tasks[lo:hi]
}

// release recycles one completed task; see releaseAll.
//
//siglint:poolput
//siglint:noalloc
func (p *taskPools) release(t *Task) {
	one := [1]*Task{t}
	p.releaseAll(one[:])
}

// releaseChunk recycles a carved chunk none of whose tasks was handed on: a
// submission refused before its policy saw it. A chunk lies in one slab.
//
//siglint:poolput
//siglint:noalloc
func (p *taskPools) releaseChunk(ts []Task) {
	if s := ts[0].slab; s.done.Add(int32(len(ts))) == slabSize {
		p.slabs.Put(s)
	}
}

// releaseAll recycles a chunk of completed tasks, publishing one completion
// count per run of tasks that share a slab. None of them may be touched
// afterwards: the add that completes a slab hands it to its next user. An
// open slab cannot get there, so one the open pool dropped (GC) is simply
// garbage once its tasks are done.
//
//siglint:poolput
//siglint:noalloc
func (p *taskPools) releaseAll(ts []*Task) {
	for i := 0; i < len(ts); {
		s := ts[i].slab
		j := i + 1
		for j < len(ts) && ts[j].slab == s {
			j++
		}
		if s.done.Add(int32(j-i)) == slabSize {
			p.slabs.Put(s)
		}
		i = j
	}
}
