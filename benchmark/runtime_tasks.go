package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/sig"
	"repro/sig/shard"
)

// runtime_tasks: a single driver submits back-to-back waves of 4096
// sub-microsecond tasks. Blocks of 8 waves rotate over five ways of using
// the same layer; immediately before every block the same bodies run bare —
// a plain sequential loop — so every CPU-bound number is a ratio between two
// measurements taken within ~50 ms of each other.

const (
	waveTasks     = 4096
	wavesPerBlock = 8
	accSteps      = 200 // xorshift steps of the accurate body (~0.4 µs)
	apxSteps      = 40
	costAcc       = 600 // declared cost units
	costApx       = 120
	taskRatio     = 0.5
	// referenceWave is what one wave's accurate bodies take in a plain loop
	// on the reference host (0.4 µs each). The contract wants latency_p50_s
	// and ops_per_s from this workload too, and raw seconds of CPU-bound work
	// follow the host's speed of the moment, so wave times are reported in
	// reference-host seconds: measured time x referenceWave ÷ the bare loop's
	// time in the same block.
	referenceWave = waveTasks * 0.4e-6
)

func xorshift(x uint64, steps int) uint64 {
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// Marks the bodies leave behind, so the driver can count what really ran.
const (
	ranNothing = iota
	ranAccurate
	ranApprox
)

// rtVariant is one way of pushing a wave through the layer under test.
type rtVariant struct {
	name, layer string
	// wave submits the prepared tasks and waits for them; it returns the
	// wave's telemetry and when submission finished.
	wave   func(r *runtimeTasks) (sig.WaveStats, time.Time)
	close  func() error
	router *shard.Router // nil for the sig.Runtime variants

	cpu      bareRatio // per block: stack CPU-s vs bare CPU-s of the bodies as executed
	wall     bareRatio // per block: stack wall-s vs bare wall-s of the all-accurate loop
	walls    []float64 // per wave
	waits    []float64 // per wave, wait phase only
	submitNS float64   // Σ submit-phase ns
	waves    int64
	refWalls [2][]float64 // per wave, reference-host seconds: [untraced, traced]
}

type runtimeTasks struct {
	sigs     []float64 // in [0,1], a few exact 0.0 and 1.0
	specs    []sig.TaskSpec
	out      []uint64
	mark     []uint8
	wantAcc  []uint64 // expected output of each body
	wantApx  []uint64
	lastAcc  []bool // decisions of the latest batch_gtbmax wave, replayed by the pool rung
	variants []*rtVariant
	pool     *barePool
}

func setupRuntimeTasks(opt options) (instance, error) {
	r := &runtimeTasks{
		sigs: make([]float64, waveTasks), specs: make([]sig.TaskSpec, waveTasks),
		out: make([]uint64, waveTasks), mark: make([]uint8, waveTasks),
		wantAcc: make([]uint64, waveTasks), wantApx: make([]uint64, waveTasks),
		lastAcc: make([]bool, waveTasks),
	}
	rng := rand.New(rand.NewSource(opt.seed))
	for i := range r.specs {
		i := i
		seed := rng.Uint64() | 1
		switch s := rng.Float64(); {
		case i%512 == 7:
			r.sigs[i] = 0 // special: never accurate
		case i%512 == 11:
			r.sigs[i] = 1 // special: always accurate
		default:
			r.sigs[i] = 0.001 + 0.998*s
		}
		r.wantAcc[i], r.wantApx[i] = xorshift(seed, accSteps), xorshift(seed, apxSteps)
		r.specs[i] = sig.TaskSpec{
			Fn:           func() { r.out[i] = xorshift(seed, accSteps); r.mark[i] = ranAccurate },
			Approx:       func() { r.out[i] = xorshift(seed, apxSteps); r.mark[i] = ranApprox },
			Significance: r.sigs[i],
			HasCost:      true, CostAccurate: costAcc, CostApprox: costApx,
		}
		if r.sigs[i] == 0 {
			r.specs[i].Significance = -1 // TaskSpec's zero value means 1.0
		}
	}

	runtimeVariant := func(name string, policy sig.PolicyKind, batch bool) error {
		rt, err := sig.New(sig.Config{Workers: workers, Policy: policy})
		if err != nil {
			return err
		}
		g := rt.Group("bench", taskRatio)
		v := &rtVariant{name: name, layer: "sig", close: rt.Close}
		if batch {
			v.wave = func(r *runtimeTasks) (sig.WaveStats, time.Time) {
				rt.SubmitBatch(g, r.specs)
				mid := time.Now()
				return rt.WaitPhase(g), mid
			}
		} else {
			// The paper's programming model: one Submit per task, clauses as
			// options.
			v.wave = func(r *runtimeTasks) (sig.WaveStats, time.Time) {
				for i := range r.specs {
					sp := &r.specs[i]
					rt.Submit(sp.Fn, sig.WithLabel(g), sig.WithSignificance(r.sigs[i]),
						sig.WithApprox(sp.Approx), sig.WithCost(costAcc, costApx))
				}
				mid := time.Now()
				return rt.WaitPhase(g), mid
			}
		}
		r.variants = append(r.variants, v)
		return nil
	}
	routerVariant := func(name string, shards, perShard int) error {
		ro, err := shard.New(shard.Config{Shards: shards, Runtime: sig.Config{Workers: perShard, Policy: sig.PolicyGTBMaxBuffer}})
		if err != nil {
			return err
		}
		g := ro.Group("bench", taskRatio)
		r.variants = append(r.variants, &rtVariant{name: name, layer: "shard", close: ro.Close, router: ro,
			wave: func(r *runtimeTasks) (sig.WaveStats, time.Time) {
				ro.SubmitBatch(g, r.specs)
				mid := time.Now()
				return ro.WaitPhase(g), mid
			}})
		return nil
	}
	for _, err := range []error{
		runtimeVariant("batch_gtbmax", sig.PolicyGTBMaxBuffer, true),
		runtimeVariant("single_gtb", sig.PolicyGTB, false),
		runtimeVariant("single_lqh", sig.PolicyLQH, false),
		routerVariant("shard1_batch", 1, workers),
		routerVariant("shard2_batch", workers, 1),
	} {
		if err != nil {
			r.close()
			return nil, err
		}
	}
	r.pool = newBarePool(workers)

	warm := newResult()
	i := 0
	warmUntil(time.Now().Add(opt.warmup), func() {
		r.stackWave(r.variants[i%len(r.variants)], warm, nil, int64(i))
		i++
	})
	if len(warm.problems) > 0 {
		r.close()
		return nil, errors.New("warm-up: " + warm.problems[0])
	}
	return r, nil
}

func (r *runtimeTasks) close() {
	for _, v := range r.variants {
		_ = v.close() // Close only reports double-close
	}
	if r.pool != nil {
		r.pool.close()
	}
}

// bareCost is what one wave's bodies cost in a plain sequential loop.
type bareCost struct{ accWall, accCPU, apxWall, apxCPU float64 }

// bareBlock runs every accurate body, then every approximate body, bare.
func (r *runtimeTasks) bareBlock() bareCost {
	c0, t0 := processCPU(), time.Now()
	for i := range r.specs {
		r.specs[i].Fn()
	}
	c1, t1 := processCPU(), time.Now()
	for i := range r.specs {
		r.specs[i].Approx()
	}
	c2, t2 := processCPU(), time.Now()
	clear(r.mark)
	return bareCost{t1.Sub(t0).Seconds(), c1 - c0, t2.Sub(t1).Seconds(), c2 - c1}
}

// waveSample is one stack wave's measurements.
type waveSample struct {
	start          time.Time
	wall, cpu      float64
	accurate, apx  int
	joules         float64
	submit, waitPh time.Duration
}

// stackWave pushes one wave through v, verifies it and returns its sample.
func (r *runtimeTasks) stackWave(v *rtVariant, res *result, buf *spanBuf, id int64) waveSample {
	root := buf.begin("loadgen", "wave "+v.name, -1, id)
	sub := buf.begin(v.layer, "Submit", root.id(), id)
	c0, t0 := processCPU(), time.Now()
	ws, mid := v.wave(r)
	t1, c1 := time.Now(), processCPU()
	if sub.recording() {
		sub.endAt(mid)
		buf.record(v.layer, "WaitPhase", mid, t1, root.id(), id)
	}
	root.end()

	res.attempted += waveTasks
	var ranAcc, ranApx, wrong, special int
	for i, m := range r.mark {
		switch m {
		case ranAccurate:
			ranAcc++
			if r.out[i] != r.wantAcc[i] {
				wrong++
			}
			if r.sigs[i] == 0 {
				special++
			}
		case ranApprox:
			ranApx++
			if r.out[i] != r.wantApx[i] {
				wrong++
			}
			if r.sigs[i] == 1 {
				special++
			}
		}
		if v.name == "batch_gtbmax" {
			r.lastAcc[i] = m == ranAccurate
		}
	}
	clear(r.mark)
	ok := ws.Decided() == waveTasks && ranAcc == ws.Accurate && ranApx == ws.Approximate && wrong == 0 && special == 0
	if !ok {
		res.failed += waveTasks
		res.check(false, "%s wave %d: decided %d of %d, bodies ran %d/%d vs stats %d/%d, %d wrong outputs, %d specials violated",
			v.name, id, ws.Decided(), waveTasks, ranAcc, ranApx, ws.Accurate, ws.Approximate, wrong, special)
	}
	return waveSample{start: t0, wall: t1.Sub(t0).Seconds(), cpu: c1 - c0, accurate: ws.Accurate, apx: ws.Approximate,
		joules: ws.Joules, submit: mid.Sub(t0), waitPh: t1.Sub(mid)}
}

func (r *runtimeTasks) measure(opt options) (*result, error) {
	res := newResult()
	buf := opt.tr.buffer()
	start := time.Now()
	end := start.Add(opt.window)
	lat := newSegments(start, opt.window, time.Second)

	var pool bareRatio
	var accurate, decided int64
	var joules, stackWall float64
	var id int64
	for rot := 0; time.Now().Before(end); rot++ {
		traced := opt.tr != nil && rot%2 == 0
		for _, v := range r.variants {
			bare := r.bareBlock()
			opt.tr.enable(traced)
			var cpu, wall, executed float64 // the block's totals
			for w := 0; w < wavesPerBlock; w++ {
				s := r.stackWave(v, res, buf, id)
				id++
				cpu += s.cpu
				wall += s.wall
				executed += (float64(s.accurate)*bare.accCPU + float64(s.apx)*bare.apxCPU) / waveTasks
				v.walls = append(v.walls, s.wall)
				v.waits = append(v.waits, s.waitPh.Seconds())
				v.submitNS += float64(s.submit.Nanoseconds())
				v.waves++
				accurate += int64(s.accurate)
				decided += int64(s.accurate + s.apx)
				joules += s.joules
				ref := s.wall * referenceWave / bare.accWall
				v.refWalls[b2i(traced)] = append(v.refWalls[b2i(traced)], ref)
				lat.add(s.start, ref)
			}
			opt.tr.enable(false)
			v.cpu.add(cpu, executed)
			v.wall.add(wall, wavesPerBlock*bare.accWall)
			stackWall += wall
		}
		if opt.tr != nil {
			// Ladder rung below the runtime: the same bodies, decided as
			// the latest batch_gtbmax wave decided them, through a bare
			// two-goroutine channel pool.
			t0 := time.Now()
			r.pool.run(r.specs, r.lastAcc)
			poolWall := time.Since(t0).Seconds()
			clear(r.mark)
			gt := r.variants[0]
			pool.add(gt.walls[len(gt.walls)-1], poolWall)
		}
	}

	var cpus, walls []*bareRatio
	for _, v := range r.variants {
		cpus = append(cpus, &v.cpu)
		walls = append(walls, &v.wall)
	}
	res.e2e["ops_per_s"] = quietDecile(lat.throughputs(waveTasks), false)
	res.e2e["latency_p50_s"] = quietDecile(lat.medians(), true)
	res.e2e["accurate_share"] = float64(accurate) / float64(decided)
	res.e2e["joules_per_op"] = joules / float64(decided)
	res.e2e["overhead_ratio"] = combine(cpus)
	res.e2e["speedup"] = 1 / combine(walls)

	byName := map[string]*rtVariant{}
	var tracedRef, untracedRef float64
	for _, v := range r.variants {
		byName[v.name] = v
		res.layer[v.layer+".overhead."+v.name] = v.cpu.value()
		res.layer[v.layer+".wave_p50_s."+v.name] = median(v.walls)
		res.layer[v.layer+".wave_p99_s."+v.name] = quantile(v.walls, 0.99)
		untracedRef += median(v.refWalls[0])
		tracedRef += median(v.refWalls[1])
	}
	perTask := func(v *rtVariant) float64 { return v.submitNS / float64(v.waves*waveTasks) }
	gt, s1, s2 := byName["batch_gtbmax"], byName["shard1_batch"], byName["shard2_batch"]
	res.layer["sig.submit_batch_ns_per_task"] = perTask(gt)
	res.layer["sig.submit_ns_per_task"] = perTask(byName["single_gtb"])
	res.layer["sig.wait_phase_p50_s"] = median(gt.waits)
	res.layer["sig.tasks_per_s"] = float64(decided) / stackWall
	res.layer["shard.submit_batch_ns_per_task"] = perTask(s2)
	res.layer["shard.wait_phase_p50_s"] = median(s2.waits)
	res.layer["shard.vs_sig_ratio"] = s1.wall.value() / gt.wall.value()
	var perShard []float64
	for _, st := range s2.router.ShardStats() {
		perShard = append(perShard, float64(st.Submitted))
	}
	res.layer["shard.placement_skew"] = quantile(perShard, 1)/mean(perShard) - 1
	if opt.tr != nil {
		res.layer["sig.pool_ratio"] = pool.value()
		res.layer["sig.allocs_per_task"] = r.allocsPerTask(gt, res)
		res.layer["trace.overhead_share.runtime_tasks"] = tracedRef/untracedRef - 1
	}
	return res, nil
}

// allocsPerTask counts heap allocations over a few waves of v.
func (r *runtimeTasks) allocsPerTask(v *rtVariant, res *result) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for w := 0; w < wavesPerBlock; w++ {
		r.stackWave(v, res, nil, -1)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / (wavesPerBlock * waveTasks)
}

// barePool is the ladder's bottom rung above the plain loop: goroutines
// draining a channel of closures, with no significance machinery at all.
type barePool struct {
	work chan func()
	wg   sync.WaitGroup // tasks of the wave in flight
	done sync.WaitGroup // worker goroutines
}

func newBarePool(n int) *barePool {
	// One wave fits in the channel, so the submitter never waits on a slow
	// worker — the same headroom the runtime's per-worker queues give it.
	p := &barePool{work: make(chan func(), waveTasks)}
	for i := 0; i < n; i++ {
		p.done.Add(1)
		go func() {
			defer p.done.Done()
			for fn := range p.work {
				fn()
				p.wg.Done()
			}
		}()
	}
	return p
}

// run executes one wave: the accurate body where accurate[i], else the
// approximate one.
func (p *barePool) run(specs []sig.TaskSpec, accurate []bool) {
	p.wg.Add(len(specs))
	for i := range specs {
		if accurate[i] {
			p.work <- specs[i].Fn
		} else {
			p.work <- specs[i].Approx
		}
	}
	p.wg.Wait()
}

func (p *barePool) close() {
	close(p.work)
	p.done.Wait()
}
