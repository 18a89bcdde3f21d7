// Package shard runs one wave over N independent sig.Runtime shards: a Router
// stripes each SubmitBatch across its shards round-robin, in submission order,
// and WaitPhase flushes every shard, waits on each and folds their cuts into
// one WaveStats. Its callers are the benchmark's runtime_tasks rungs
// (shard1_batch, shard2_batch), which measure what splitting one wave across
// runtimes costs against one runtime of the same workers, and its own tests;
// no front end serves through it.
//
// The merged wave is sig's own arithmetic (sig.WaveStats.Merge): counts and
// busy nanoseconds summed as integers, the joules priced from that sum in one
// multiplication, so the merged energy is bit-identical to a single runtime
// executing the same bodies, at any shard count.
//
// A Router has exactly Config.Shards runtimes from New to Close. A shard that
// stalls holds the merged wave until its cut completes
// (TestStalledShardHoldsWave); like the paper's runtime, it detects no faults.
//
//siglint:deterministic
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/sig"
)

// Config parameterizes a Router.
type Config struct {
	// Shards is the number of sig.Runtime shards started at New (0 means 1).
	Shards int
	// Runtime configures every shard identically: Workers is the
	// *per-shard* worker pool (0 = GOMAXPROCS per shard).
	Runtime sig.Config
}

// Router stripes waves over its shards. Create one with New, create logical
// groups with Group, submit with SubmitBatch, synchronize with WaitPhase, and
// release every shard with Close.
type Router struct {
	shards []*sig.Runtime // fixed at New

	mu     sync.Mutex // guards groups; never on the submit path
	groups map[string]*Group

	rr atomic.Uint64 // round-robin cursor

	scatter sync.Pool // of *scatterBuf, SubmitBatch's per-shard sub-batches
}

// scatterBuf is the scratch one multi-shard SubmitBatch scatters into: one
// sub-batch per shard. Pooled, so a steady stream of waves reuses the grown
// buckets instead of rebuilding them.
type scatterBuf struct {
	buckets [][]sig.TaskSpec
}

// getScatter returns an empty scatter scratch.
//
//siglint:poolget
//siglint:noalloc
func (r *Router) getScatter() *scatterBuf {
	return r.scatter.Get().(*scatterBuf)
}

// putScatter recycles a scatter scratch after dropping the task bodies it
// holds, so a pooled bucket never pins a finished wave's closures.
//
//siglint:poolput
//siglint:noalloc
func (r *Router) putScatter(sc *scatterBuf) {
	for b := range sc.buckets {
		clear(sc.buckets[b])
		sc.buckets[b] = sc.buckets[b][:0]
	}
	r.scatter.Put(sc)
}

// New builds a Router and starts its shards.
func New(cfg Config) (*Router, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d", cfg.Shards)
	}
	n := max(cfg.Shards, 1)
	r := &Router{
		shards: make([]*sig.Runtime, n),
		groups: make(map[string]*Group),
	}
	r.scatter.New = func() any {
		return &scatterBuf{buckets: make([][]sig.TaskSpec, n)}
	}
	for i := range r.shards {
		rt, err := sig.New(cfg.Runtime)
		if err != nil {
			for _, started := range r.shards[:i] {
				started.Close()
			}
			return nil, err
		}
		r.shards[i] = rt
	}
	return r, nil
}

// Group is one logical task group spanning every shard: one sig.Group of the
// same name and ratio per shard.
type Group struct {
	parts []*sig.Group // shard-indexed; set before the group is published

	// waveMu serializes WaitPhase on this group, like the per-group phase
	// lock of a single runtime, so the shards' waves stay aligned.
	waveMu sync.Mutex
}

// Group returns the logical group with the given name, creating it (on every
// shard) on first use, and sets its ratio on every shard. Like
// sig.Runtime.Group it is an idempotent get-or-create, and calling it again
// with another ratio is how a caller retargets the group.
func (r *Router) Group(name string, ratio float64) *Group {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.groups[name]; ok {
		for _, p := range g.parts {
			p.SetRatio(ratio)
		}
		return g
	}
	g := &Group{parts: make([]*sig.Group, len(r.shards))}
	for i, rt := range r.shards {
		g.parts[i] = rt.Group(name, ratio)
	}
	r.groups[name] = g
	return g
}

// SubmitBatch scatters the batch across shards round-robin and submits one
// sub-batch per shard, preserving relative order within each shard: spec k
// goes where the k-th of one-spec batches would have gone. Like
// sig.Runtime.SubmitBatch it panics on a nil body, before placing anything,
// or on a closed router.
func (r *Router) SubmitBatch(g *Group, specs []sig.TaskSpec) {
	if len(specs) == 0 {
		return
	}
	for k := range specs {
		if specs[k].Fn == nil {
			panic("sig: SubmitBatch with nil task body")
		}
	}
	if len(r.shards) == 1 {
		// One shard: nothing to place, so the whole batch is one bucket.
		r.shards[0].SubmitBatch(g.parts[0], specs)
		return
	}
	sc := r.getScatter()
	defer r.putScatter(sc) // also on a panic out of a shard's SubmitBatch
	// One range of the round-robin sequence for the whole batch: spec k gets
	// cursor+k, and its shard is that value modulo the shard count.
	n := uint64(len(r.shards))
	cursor := r.rr.Add(uint64(len(specs))) - uint64(len(specs))
	for k := range specs {
		b := (cursor + uint64(k)) % n
		sc.buckets[b] = append(sc.buckets[b], specs[k])
	}
	for b, sub := range sc.buckets {
		if len(sub) > 0 {
			r.shards[b].SubmitBatch(g.parts[b], sub)
		}
	}
}

// WaitPhase flushes the logical group on every shard, then waits on each in
// shard order, and returns the merged wave telemetry. Flushing all before
// waiting on any is what lets the shards run their waves side by side: under
// a buffering policy nothing on a shard runs before its own flush, so
// flushing shard i+1 only after shard i drained would run the shards one at a
// time. The shards' cuts are folded in shard order by sig.WaveStats.Merge
// onto shard 0's, which carries the wave index and the requested ratio every
// shard shares; a one-shard Router returns its runtime's WaveStats as is.
func (r *Router) WaitPhase(g *Group) sig.WaveStats {
	g.waveMu.Lock()
	defer g.waveMu.Unlock()
	for i, rt := range r.shards {
		rt.Flush(g.parts[i])
	}
	merged := r.shards[0].WaitPhase(g.parts[0])
	for i := 1; i < len(r.shards); i++ {
		merged.Merge(r.shards[i].WaitPhase(g.parts[i]))
	}
	return merged
}

// ShardStats returns each shard's own Stats snapshot, indexed by shard.
func (r *Router) ShardStats() []sig.Stats {
	out := make([]sig.Stats, len(r.shards))
	for i, rt := range r.shards {
		out[i] = rt.Stats()
	}
	return out
}

// Close drains and closes every shard (sig.Close is idempotent, so Close is
// too).
func (r *Router) Close() error {
	var errs []error
	for _, rt := range r.shards {
		errs = append(errs, rt.Close())
	}
	return errors.Join(errs...)
}
