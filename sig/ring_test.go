package sig

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// ringModel is the reference a ring is checked against: a bounded FIFO as a
// mutex-guarded slice. These tests pin the contract any replacement of the
// ring must keep.
type ringModel struct {
	mu    sync.Mutex
	cap   int
	tasks []*Task
}

func (m *ringModel) pushN(ts []*Task) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := min(len(ts), m.cap-len(m.tasks))
	m.tasks = append(m.tasks, ts[:n]...)
	return n
}

func (m *ringModel) popN(dst []*Task) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := copy(dst, m.tasks)
	m.tasks = m.tasks[n:]
	return n
}

// TestRingMatchesModel drives the ring and the model with the same random
// pushes and pops from one goroutine, where every result is determined:
// counts, order, full and empty, many times around rings of 1, 2, 4 and 16
// slots.
func TestRingMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 4, 16} {
		r := newRing(capacity)
		slots := len(r.buf)
		if want := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 16: 16}[capacity]; slots != want {
			t.Fatalf("newRing(%d) has %d slots, want %d", capacity, slots, want)
		}
		m := &ringModel{cap: slots}
		rng := rand.New(rand.NewSource(int64(capacity)))
		var seq uint64
		got, want := make([]*Task, slots+2), make([]*Task, slots+2)
		for step := 0; step < 20000; step++ {
			switch k := rng.Intn(slots + 3); rng.Intn(3) {
			case 0:
				seq++
				one := []*Task{{Seq: seq}}
				if a, b := r.push(one[0]), m.pushN(one) == 1; a != b {
					t.Fatalf("cap %d step %d: push reported %v, model %v", slots, step, a, b)
				}
			case 1:
				ts := make([]*Task, k)
				for i := range ts {
					seq++
					ts[i] = &Task{Seq: seq}
				}
				if a, b := r.pushN(ts), m.pushN(ts); a != b {
					t.Fatalf("cap %d step %d: pushN(%d) took %d, model %d", slots, step, k, a, b)
				}
			default:
				k = min(k, len(got))
				a, b := r.popN(got[:k]), m.popN(want[:k])
				if a != b {
					t.Fatalf("cap %d step %d: popN(%d) gave %d, model %d", slots, step, k, a, b)
				}
				for i := 0; i < a; i++ {
					if got[i] != want[i] {
						t.Fatalf("cap %d step %d: popN[%d] is task %d, model %d", slots, step, i, got[i].Seq, want[i].Seq)
					}
				}
			}
			if r.empty() != (len(m.tasks) == 0) {
				t.Fatalf("cap %d step %d: empty() = %v with %d tasks queued", slots, step, r.empty(), len(m.tasks))
			}
		}
		if laps := r.head.Load() / uint64(slots); laps < 100 {
			t.Fatalf("cap %d: only %d laps, the wrap-around was not exercised", slots, laps)
		}
	}
}

// TestRingConcurrent: producers × consumers on one small ring — an owner
// popping full batches and stealers popping half ones, as the workers do.
// Every task comes out exactly once, no pop exceeds its destination, and each
// consumer sees each producer's tasks in the order they were pushed.
func TestRingConcurrent(t *testing.T) {
	const perProducer = 4000
	for _, tc := range []struct{ capacity, producers, consumers int }{
		{1, 2, 2}, {2, 3, 2}, {4, 2, 3}, {16, 4, 4}, {256, 3, 3},
	} {
		r := newRing(tc.capacity)
		total := tc.producers * perProducer
		seen := make([]atomic.Int32, total)
		var popped atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < tc.producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				ts := make([]*Task, perProducer)
				for i := range ts {
					ts[i] = &Task{Seq: uint64(p*perProducer + i)}
				}
				for i := 0; i < len(ts); {
					n := 0
					if i%3 == 0 { // alternate the single and the batched entry
						if r.push(ts[i]) {
							n = 1
						}
					} else {
						n = r.pushN(ts[i:min(i+5, len(ts))])
					}
					if i += n; n == 0 {
						runtime.Gosched() // full
					}
				}
			}(p)
		}
		for c := 0; c < tc.consumers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				dst := make([]*Task, popBatchSize)
				if c > 0 {
					dst = dst[:popBatchSize/2]
				}
				last := make([]int, tc.producers)
				for i := range last {
					last[i] = -1
				}
				for popped.Load() < int64(total) {
					n := r.popN(dst)
					if n > len(dst) {
						t.Errorf("popN gave %d tasks for a destination of %d", n, len(dst))
						return
					}
					for _, task := range dst[:n] {
						p, i := int(task.Seq)/perProducer, int(task.Seq)%perProducer
						if seen[task.Seq].Add(1) != 1 {
							t.Errorf("task %d of producer %d popped twice", i, p)
						}
						if i <= last[p] {
							t.Errorf("consumer %d saw producer %d's task %d after its task %d", c, p, i, last[p])
						}
						last[p] = i
					}
					if popped.Add(int64(n)); n == 0 {
						runtime.Gosched() // empty
					}
				}
			}(c)
		}
		wg.Wait()
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("cap %d: task %d popped %d times", tc.capacity, i, seen[i].Load())
			}
		}
		if !r.empty() || r.head.Load() != uint64(total) {
			t.Fatalf("cap %d: ring ends with head %d, tail %d after %d tasks", tc.capacity, r.head.Load(), r.tail.Load(), total)
		}
	}
}
