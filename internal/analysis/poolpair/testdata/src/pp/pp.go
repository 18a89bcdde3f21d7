// Package pp exercises the poolpair analyzer: pooled objects must be
// released or handed off on every path out of the function that drew
// them — including the panic paths.
package pp

import "sync"

type task struct {
	sig  float64
	wave int
}

type pools struct{ p sync.Pool }

// get draws a task from the pool.
//
//siglint:poolget
func (ps *pools) get() *task {
	t, _ := ps.p.Get().(*task)
	if t == nil {
		t = &task{}
	}
	return t
}

// release returns a task to the pool.
//
//siglint:poolput
func (ps *pools) release(t *task) { ps.p.Put(t) }

// dispatch hands a task to the workers, which release it on completion.
//
//siglint:poolput
func (ps *pools) dispatch(t *task) { _ = t }

type option func(*task)

type policy interface{ submit(*task) }

// submitLeaky reproduces the shape PR 4 fixed by hand in Submit: option
// callbacks borrow the task, then a validation panic leaks it.
func submitLeaky(ps *pools, opts []option) {
	t := ps.get() // want `pooled object "t" drawn here may reach a panic`
	for _, o := range opts {
		o(t)
	}
	if t.sig < 0 {
		panic("negative significance")
	}
	ps.dispatch(t)
}

// submitFixed is the corrected shape: release before the panic.
func submitFixed(ps *pools, opts []option) {
	t := ps.get()
	for _, o := range opts {
		o(t)
	}
	if t.sig < 0 {
		ps.release(t)
		panic("negative significance")
	}
	ps.dispatch(t)
}

func earlyReturnLeak(ps *pools, ok bool) {
	t := ps.get() // want `may reach a return`
	if !ok {
		return
	}
	ps.dispatch(t)
}

func endOfFunctionLeak(ps *pools) {
	t := ps.get() // want `may reach the end of the function`
	t.sig = 1
}

// deferRelease is safe on every exit, including the panic.
func deferRelease(ps *pools, ok bool) {
	t := ps.get()
	defer ps.release(t)
	if !ok {
		panic("bad")
	}
	t.sig = 2
}

// handoff transfers ownership through a dynamically-dispatched method;
// the analyzer trusts the interface contract.
func handoff(ps *pools, pol policy) {
	t := ps.get()
	pol.submit(t)
}

// appended transfers ownership into a live slice.
func appended(ps *pools, lane []*task) []*task {
	t := ps.get()
	return append(lane, t)
}

// direct uses sync.Pool.Get straight, with the nil-guard idiom.
var taskPool sync.Pool

func direct() *task {
	v, _ := taskPool.Get().(*task)
	if v == nil {
		v = &task{}
	}
	return v
}

// optedOut acknowledges a deliberate escape.
func optedOut(ps *pools, ok bool) {
	t := ps.get() //siglint:leakok fixture: the caller drains the pool between cases
	if !ok {
		return
	}
	ps.dispatch(t)
}

func bareOptOut(ps *pools) {
	//siglint:leakok
	t := ps.get() // want `needs a justification`
	_ = t
}
