// Package na exercises the noalloc analyzer: //siglint:noalloc functions
// must not heap-allocate on any path.
package na

import (
	"sync"
	"sync/atomic"
	"time"
)

type item struct {
	n    int
	next *item
}

type ring struct {
	buf  [8]*item
	head int64
	mu   sync.Mutex
}

type sink interface{ eat(*item) }

// push is an allocation-free hot path: locks, atomics, array stores.
//
//siglint:noalloc
func push(r *ring, it *item) bool {
	r.mu.Lock()
	h := atomic.AddInt64(&r.head, 1)
	r.buf[h%8] = it
	r.mu.Unlock()
	return h >= 0
}

//siglint:noalloc
func leaks(r *ring, xs []int, s sink, f func(), it *item) {
	_ = make([]int, 8) // want `make allocates`
	_ = new(item)      // want `new allocates`
	_ = &item{}        // want `&composite literal allocates`
	_ = []int{1, 2}    // want `slice literal allocates`
	_ = map[int]int{}  // want `map literal allocates`
	_ = func() {}      // want `func literal allocates a closure`
	xs = append(xs, 1) // want `append may grow its backing array`
	s.eat(it)          // want `dynamic call eat through an interface`
	f()                // want `call through a function value`
	helper()           // want `call to na.helper, which is not //siglint:noalloc`
	go push(r, it)     // want `go statement allocates a goroutine`
}

func helper() {}

//siglint:noalloc
func amortized(lane []*item, it *item) []*item {
	lane = append(lane, it) //siglint:allocok amortized growth into the retained lane buffer
	return lane
}

//siglint:noalloc
func record(v any) { _ = v }

//siglint:noalloc
func boxes(n int, it *item) {
	record(n)  // want `implicit conversion of int to .* allocates`
	record(it) // pointer-shaped: fits the interface word, no boxing
}

//siglint:noalloc
func sum(vs ...int) int {
	t := 0
	for _, v := range vs {
		t += v
	}
	return t
}

//siglint:noalloc
func variadic(a, b int, vs []int) int {
	t := sum(a, b) // want `variadic call allocates the argument slice`
	return t + sum(vs...)
}

//siglint:noalloc
func strs(s string, bs []byte) {
	_ = s + s      // want `string concatenation allocates`
	_ = []byte(s)  // want `string<->slice conversion copies and allocates`
	_ = string(bs) // want `string<->slice conversion copies and allocates`
}

//siglint:noalloc
func loops(r *ring) {
	for i := 0; i < 3; i++ {
		defer r.mu.Unlock() // want `defer inside a loop`
	}
}

//siglint:noalloc
func methodValue(r *ring) func() {
	return r.mu.Lock // want `method value Lock allocates a closure`
}

//siglint:noalloc
func clockOK(deadline time.Time) (time.Duration, bool) {
	t0 := time.Now()
	// The method (time.Time).After is a plain comparison; only the
	// package-level time.After timer constructor allocates.
	return time.Since(t0), t0.After(deadline)
}

//siglint:noalloc
func timerNotOK(d time.Duration) <-chan time.Time {
	return time.After(d) // want `call to time.After, which is not //siglint:noalloc`
}

//siglint:noalloc
func failurePathOK(it *item) {
	if it == nil {
		panic("nil item") // the failure path may allocate
	}
}

//siglint:noalloc
func bareOptOut() *item {
	//siglint:allocok
	return &item{} // want `needs a justification`
}

// unannotated functions may allocate freely.
func unannotated() []int {
	return make([]int, 4)
}
