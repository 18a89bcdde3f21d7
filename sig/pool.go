package sig

import (
	"sync"
	"sync/atomic"
)

// Task recycling. Scalar Submit draws one *Task at a time from a sync.Pool;
// SubmitBatch carves tasks out of slabs — contiguous arrays recycled as a
// unit once every task of the slab has completed — so the steady-state heap
// cost of a task is zero on both paths.

// slabSize is how many tasks one batch slab holds.
const slabSize = 64

// taskSlab is a contiguous block of tasks handed out by SubmitBatch. n is
// the number of tasks in use this round; done counts completions, and the
// slab returns to the pool when the last task of the round finishes.
type taskSlab struct {
	tasks [slabSize]Task
	n     int32
	done  atomic.Int32
}

// taskPools owns both recycling paths of a Runtime.
type taskPools struct {
	single   sync.Pool // of *Task
	slabs    sync.Pool // of *taskSlab
	dispatch sync.Pool // of *[]*Task, SubmitBatch dispatch scratch
}

// getDispatch returns an empty dispatch scratch slice.
//
//siglint:poolget
//siglint:noalloc
func (p *taskPools) getDispatch() *[]*Task {
	if v := p.dispatch.Get(); v != nil {
		return v.(*[]*Task)
	}
	s := make([]*Task, 0, 4*slabSize) //siglint:allocok pool miss: first draw builds the scratch the pool then recycles
	return &s
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

// get returns a reset single task ready for Submit to fill.
//
//siglint:poolget
//siglint:noalloc
func (p *taskPools) get() *Task {
	if v := p.single.Get(); v != nil {
		return v.(*Task)
	}
	return &Task{} //siglint:allocok pool miss: steady state always hits the pool
}

// getSlab returns a slab ready to hand out n tasks.
//
//siglint:poolget
//siglint:noalloc
func (p *taskPools) getSlab(n int) *taskSlab {
	var s *taskSlab
	if v := p.slabs.Get(); v != nil {
		s = v.(*taskSlab)
	} else {
		s = new(taskSlab) //siglint:allocok pool miss: steady state always hits the pool
	}
	s.n = int32(n)
	s.done.Store(0)
	return s
}

// release recycles one completed task; see releaseAll.
//
//siglint:poolput
//siglint:noalloc
func (p *taskPools) release(t *Task) {
	one := [1]*Task{t}
	p.releaseAll(one[:])
}

// releaseAll recycles a chunk of completed tasks, each onto whichever path
// produced it, publishing one completion count per run of tasks that share a
// slab. None of them may be touched afterwards.
//
//siglint:poolput
//siglint:noalloc
func (p *taskPools) releaseAll(ts []*Task) {
	for i := 0; i < len(ts); {
		s := ts[i].slab
		if s == nil {
			ts[i].reset()
			p.single.Put(ts[i])
			i++
			continue
		}
		j := i + 1
		for j < len(ts) && ts[j].slab == s {
			j++
		}
		// Read n BEFORE publishing our completions: until our Add lands
		// the slab cannot reach done==n, so it cannot be recycled and n
		// is stable. Reading it after the Add would race with the slab's
		// next user re-initializing it.
		n := s.n
		if s.done.Add(int32(j-i)) == n {
			p.slabs.Put(s)
		}
		i = j
	}
}

// reset clears a task for reuse, keeping the footprint slices' capacity.
//
//siglint:noalloc
func (t *Task) reset() {
	ins, outs := t.ins[:0], t.outs[:0]
	*t = Task{}
	t.ins, t.outs = ins, outs
}
