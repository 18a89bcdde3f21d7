// Package kmeans is the paper's iterative-clustering benchmark. Each Lloyd
// iteration is decomposed into per-chunk assignment tasks; the approximate
// body restricts each point's search to its current cluster and that
// cluster's few nearest centroids (ignoring distant clusters), cutting the
// distance-computation cost to ~(1+neighbors)/K while keeping convergence
// intact, and chunk significance tracks how much the chunk moved in the
// previous iteration.
package kmeans

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/rng"
	"repro/sig"
)

// Params sizes the problem.
type Params struct {
	// N observations of dimension D, clustered into K groups.
	N, K, D int
	// MaxIter bounds the Lloyd iterations; Chunk is the task granularity.
	MaxIter, Chunk int
	Seed           int64
}

// DefaultParams matches the example defaults.
func DefaultParams() Params {
	return Params{N: 32768, K: 16, D: 4, MaxIter: 30, Chunk: 512, Seed: 4}
}

// Result is the outcome of one clustering run.
type Result struct {
	// Iterations actually executed before convergence or MaxIter.
	Iterations int
	// Inertia is the exact sum of squared distances to the final
	// centroids (computed sequentially, so it is comparable across
	// policies).
	Inertia float64
	// Centroids is the K×D centroid matrix, row-major.
	Centroids []float64
}

// App is one clustering instance over a fixed synthetic data set.
type App struct {
	p    Params
	data []float64 // N×D row-major
	init []float64 // initial centroids, K×D
}

// New generates the data set: K well-separated hidden centers plus uniform
// noise, deterministic in Seed.
func New(p Params) *App {
	if p.N < p.K {
		p.N = p.K
	}
	if p.Chunk <= 0 {
		p.Chunk = 512
	}
	a := &App{p: p, data: make([]float64, p.N*p.D), init: make([]float64, p.K*p.D)}
	src := rng.Raw(uint64(p.Seed)*0x9e3779b97f4a7c15 + 11)
	centers := make([]float64, p.K*p.D)
	for i := range centers {
		centers[i] = 10 * src.Float64()
	}
	for i := 0; i < p.N; i++ {
		c := i % p.K
		for d := 0; d < p.D; d++ {
			// Noise wide enough that clusters overlap: the
			// restricted candidate search then loses measurable
			// (but graceful) quality.
			a.data[i*p.D+d] = centers[c*p.D+d] + 4*src.Float64() - 2
		}
	}
	// Initial centroids: the first K observations (deterministic and
	// identical for every policy).
	copy(a.init, a.data[:p.K*p.D])
	return a
}

// Tasks returns the number of tasks one iteration submits.
func (a *App) Tasks() int { return (a.p.N + a.p.Chunk - 1) / a.p.Chunk }

// WaveCosts returns the total declared cost units (~1ns each, see
// sig.WithCost) one Lloyd wave submits when every chunk runs accurately
// and when every chunk runs approximately. Wave energy is linear between
// the two in the accurate fraction; the adaptive harness derives its
// analytic energy budget and oracle ratio from these instead of mirroring
// the kernel's cost model.
func (a *App) WaveCosts() (accurate, approx float64) {
	candidates := 1 + min(approxNeighbors, a.p.K-1)
	return float64(a.p.N * a.p.K * a.p.D * 3), float64(a.p.N * candidates * a.p.D * 3)
}

func (a *App) nearest(cent []float64, i int) (int, float64) {
	best, bestD := 0, math.MaxFloat64
	for c := 0; c < a.p.K; c++ {
		d2 := a.dist2(cent, i, c)
		if d2 < bestD {
			best, bestD = c, d2
		}
	}
	return best, bestD
}

// nearestAmong classifies observation i considering only the candidate
// clusters.
func (a *App) nearestAmong(cent []float64, i int, candidates []int16) (int, float64) {
	best, bestD := int(candidates[0]), math.MaxFloat64
	for _, c := range candidates {
		d2 := a.dist2(cent, i, int(c))
		if d2 < bestD {
			best, bestD = int(c), d2
		}
	}
	return best, bestD
}

func (a *App) dist2(cent []float64, i, c int) float64 {
	var d2 float64
	for d := 0; d < a.p.D; d++ {
		diff := a.data[i*a.p.D+d] - cent[c*a.p.D+d]
		d2 += diff * diff
	}
	return d2
}

// approxNeighbors is the candidate-set size of the approximate assignment:
// the point's current cluster plus its nearest other centroids.
const approxNeighbors = 4

// neighborTable holds, per cluster, the cluster itself followed by its
// approxNeighbors nearest other centroids. A Lloyd loop refills one table
// every wave, so the rows and the sort scratch are allocated once.
type neighborTable struct {
	rows   [][]int16
	others []centroidDist
}

type centroidDist struct {
	c int
	d float64
}

func (a *App) newNeighborTable() *neighborTable {
	k := a.p.K
	width := 1 + min(approxNeighbors, k-1)
	flat := make([]int16, k*width)
	t := &neighborTable{rows: make([][]int16, k), others: make([]centroidDist, 0, k-1)}
	for c := range t.rows {
		t.rows[c] = flat[c*width : (c+1)*width]
	}
	return t
}

// fill recomputes every row for the centroids cent.
func (t *neighborTable) fill(a *App, cent []float64) {
	for c, row := range t.rows {
		others := t.others[:0]
		for o := range t.rows {
			if o == c {
				continue
			}
			var d2 float64
			for d := 0; d < a.p.D; d++ {
				diff := cent[c*a.p.D+d] - cent[o*a.p.D+d]
				d2 += diff * diff
			}
			others = append(others, centroidDist{o, d2})
		}
		slices.SortFunc(others, func(x, y centroidDist) int { return cmp.Compare(x.d, y.d) })
		row[0] = int16(c)
		for i := range row[1:] {
			row[1+i] = int16(others[i].c)
		}
	}
}

// Scorer classifies observations against a fixed trained centroid set —
// the request body of the serving backends (kmeans scoring). The
// restricted search's neighbor table depends only on the centroids, so it
// is computed once here rather than per request.
type Scorer struct {
	a     *App
	cent  []float64
	table *neighborTable
}

// NewScorer builds a Scorer over the given centroids (K×D row-major).
func (a *App) NewScorer(cent []float64) *Scorer {
	s := &Scorer{a: a, cent: cent, table: a.newNeighborTable()}
	s.table.fill(a, cent)
	return s
}

// Score classifies the observation chunk [lo, lo+len(out)) into out, the
// caller's buffer, so a request body allocates nothing. Restricted mode
// reuses the approximate kernel's candidate search, seeding each point with
// its generator-assigned cluster (i % K) instead of a running assignment.
func (s *Scorer) Score(out []int32, lo int, restricted bool) {
	a := s.a
	for j := range out {
		i := lo + j
		var k int
		if restricted {
			k, _ = a.nearestAmong(s.cent, i, s.table.rows[i%a.p.K])
		} else {
			k, _ = a.nearest(s.cent, i)
		}
		out[j] = int32(k)
	}
}

// ScoreCosts returns the declared cost units of scoring an n-point chunk
// accurately (all K centroids per point) and restricted (the candidate
// set), matching the kernel's WithCost model. The restricted search's
// neighbor table is excluded: it is built once per Scorer, not per chunk.
func (a *App) ScoreCosts(n int) (accurate, degraded float64) {
	candidates := 1 + min(approxNeighbors, a.p.K-1)
	return float64(n * a.p.K * a.p.D * 3), float64(n * candidates * a.p.D * 3)
}

// Len returns the number of observations.
func (a *App) Len() int { return a.p.N }

// Sequential runs exact Lloyd iterations to convergence (or MaxIter).
func (a *App) Sequential() Result {
	cent := append([]float64(nil), a.init...)
	assign := make([]int32, a.p.N)
	for i := range assign {
		assign[i] = -1
	}
	iters := 0
	for it := 0; it < a.p.MaxIter; it++ {
		iters++
		changed := 0
		for i := 0; i < a.p.N; i++ {
			c, _ := a.nearest(cent, i)
			if int32(c) != assign[i] {
				assign[i] = int32(c)
				changed++
			}
		}
		a.updateCentroids(cent, assign)
		if converged(changed, a.p.N) {
			break
		}
	}
	return Result{Iterations: iters, Inertia: a.inertia(cent), Centroids: cent}
}

// lloydState is the mutable state of a running Lloyd loop: centroids,
// assignments and the per-chunk partials and significances shared by the
// batch (Run) and streaming (RunStream) drivers, plus the buffers the master
// reuses between taskwaits: the candidate table and the reduce's totals.
type lloydState struct {
	cent      []float64
	assign    []int32
	counts    [][]int64
	sums      [][]float64
	changed   []int
	signif    []float64
	neighbors *neighborTable
	total     []int64
	vec       []float64
}

func (a *App) newLloydState() *lloydState {
	p := a.p
	s := &lloydState{
		cent:    append([]float64(nil), a.init...),
		assign:  make([]int32, p.N),
		counts:  make([][]int64, a.Tasks()),
		sums:    make([][]float64, a.Tasks()),
		changed: make([]int, a.Tasks()),
		signif:  make([]float64, a.Tasks()),

		neighbors: a.newNeighborTable(),
		total:     make([]int64, p.K),
		vec:       make([]float64, p.K*p.D),
	}
	for i := range s.assign {
		s.assign[i] = -1
	}
	for c := range s.counts {
		s.counts[c] = make([]int64, p.K)
		s.sums[c] = make([]float64, p.K*p.D)
		s.signif[c] = 0.9
	}
	return s
}

// runWave executes one Lloyd iteration as one wave on grp: submit a task
// per chunk, taskwait (through WaitPhase, for the wave's telemetry), reduce
// the partials into new centroids and reassign significances. It returns
// the number of points that moved and the wave's telemetry.
func (a *App) runWave(rt *sig.Runtime, grp *sig.Group, s *lloydState) (int, sig.WaveStats) {
	p := a.p
	nchunks := a.Tasks()
	s.neighbors.fill(a, s.cent)
	neighbors := s.neighbors.rows
	candidates := 1 + min(approxNeighbors, p.K-1)
	for c := 0; c < nchunks; c++ {
		c := c
		lo, hi := c*p.Chunk, min((c+1)*p.Chunk, p.N)
		for i := range s.counts[c] {
			s.counts[c][i] = 0
		}
		for i := range s.sums[c] {
			s.sums[c][i] = 0
		}
		s.changed[c] = 0
		reassign := func(restricted bool) {
			ch := 0
			for i := lo; i < hi; i++ {
				var k int
				if restricted && s.assign[i] >= 0 {
					k, _ = a.nearestAmong(s.cent, i, neighbors[s.assign[i]])
				} else {
					k, _ = a.nearest(s.cent, i)
				}
				if int32(k) != s.assign[i] {
					s.assign[i] = int32(k)
					ch++
				}
				s.counts[c][k]++
				for d := 0; d < p.D; d++ {
					s.sums[c][k*p.D+d] += a.data[i*p.D+d]
				}
			}
			s.changed[c] = ch
		}
		rt.Submit(
			func() { reassign(false) },
			sig.WithLabel(grp),
			sig.WithSignificance(s.signif[c]),
			sig.WithApprox(func() { reassign(true) }),
			// Distance computations dominate: all K clusters
			// per point vs the restricted candidate set.
			sig.WithCost(float64((hi-lo)*p.K*p.D*3), float64((hi-lo)*candidates*p.D*3)),
		)
	}
	ws := rt.WaitPhase(grp)
	// Reduce partials into new centroids.
	total, vec := s.total, s.vec
	clear(total)
	clear(vec)
	for c := 0; c < nchunks; c++ {
		for k := 0; k < p.K; k++ {
			total[k] += s.counts[c][k]
			for d := 0; d < p.D; d++ {
				vec[k*p.D+d] += s.sums[c][k*p.D+d]
			}
		}
	}
	for k := 0; k < p.K; k++ {
		if total[k] == 0 {
			continue // keep the old centroid for empty clusters
		}
		for d := 0; d < p.D; d++ {
			s.cent[k*p.D+d] = vec[k*p.D+d] / float64(total[k])
		}
	}
	// Next-iteration significance: chunks that moved matter more.
	moved := 0
	for c := 0; c < nchunks; c++ {
		moved += s.changed[c]
		frac := float64(s.changed[c]) / float64(min((c+1)*p.Chunk, p.N)-c*p.Chunk)
		s.signif[c] = 0.15 + 0.75*math.Min(1, 4*frac)
	}
	return moved, ws
}

// Run executes clustering under the runtime with per-chunk tasks.
func (a *App) Run(rt *sig.Runtime, ratio float64) Result {
	grp := rt.Group("kmeans", ratio)
	s := a.newLloydState()
	iters := 0
	for it := 0; it < a.p.MaxIter; it++ {
		iters++
		moved, _ := a.runWave(rt, grp, s)
		if converged(moved, a.p.N) {
			break
		}
	}
	return Result{Iterations: iters, Inertia: a.inertia(s.cent), Centroids: s.cent}
}

// RunStream is the streaming mode: exactly waves Lloyd iterations, each a
// phased wave on grp. The group is created by the caller so an adaptive
// controller can own its ratio between waves: onWave (optional) receives
// each wave's telemetry before the next wave is submitted, and is where the
// caller hands it to adapt.Controller.Observe. Unlike Run it never stops
// early — a streaming service keeps processing its input.
func (a *App) RunStream(rt *sig.Runtime, grp *sig.Group, waves int, onWave func(ws sig.WaveStats)) Result {
	s := a.newLloydState()
	for it := 0; it < waves; it++ {
		_, ws := a.runWave(rt, grp, s)
		if onWave != nil {
			onWave(ws)
		}
	}
	return Result{Iterations: waves, Inertia: a.inertia(s.cent), Centroids: s.cent}
}

// converged reports whether an iteration moved few enough points (≤0.1%)
// to stop: with overlapping clusters, boundary points jitter indefinitely,
// so an exact zero-movement test would never trigger.
func converged(moved, n int) bool { return moved*1000 <= n }

func (a *App) updateCentroids(cent []float64, assign []int32) {
	p := a.p
	total := make([]int64, p.K)
	vec := make([]float64, p.K*p.D)
	for i := 0; i < p.N; i++ {
		k := assign[i]
		total[k]++
		for d := 0; d < p.D; d++ {
			vec[int(k)*p.D+d] += a.data[i*p.D+d]
		}
	}
	for k := 0; k < p.K; k++ {
		if total[k] == 0 {
			continue
		}
		for d := 0; d < p.D; d++ {
			cent[k*p.D+d] = vec[k*p.D+d] / float64(total[k])
		}
	}
}

// inertia exactly evaluates the clustering objective for cent. It stays one
// sequential pass on purpose: the summation order is part of every recorded
// quality (the GTB(max) golden included), and a chunked sum would round
// differently.
func (a *App) inertia(cent []float64) float64 {
	var sum float64
	for i := 0; i < a.p.N; i++ {
		_, d2 := a.nearest(cent, i)
		sum += d2
	}
	return sum
}

// Quality is the relative inertia error (%) of res against the reference.
func (a *App) Quality(ref, res Result) float64 {
	if ref.Inertia == 0 {
		return 0
	}
	return 100 * math.Abs(res.Inertia-ref.Inertia) / ref.Inertia
}
