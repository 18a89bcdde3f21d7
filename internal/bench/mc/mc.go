// Package mc is the paper's Monte Carlo benchmark: estimating a harmonic
// function on interior points of the unit square from random lattice walks.
// Each task runs one batch of walks for one point; early batches are more
// significant, and there is no approximate body — an approximated batch is
// simply dropped, thinning the sample without biasing the estimator.
//
// The boundary condition u(x,y) = x² − y² + 3x + 8 is discrete-harmonic on
// the lattice, so the walk estimator is unbiased and App.Exact gives the
// true solution for free.
package mc

import (
	"math"

	"repro/internal/rng"
	"repro/sig"
)

// Params sizes the problem.
type Params struct {
	// Points is the number of interior estimation points.
	Points int
	// WalksPerBatch is the number of random walks per task.
	WalksPerBatch int
	// Batches is the number of batch tasks per point.
	Batches int
	// GridN is the lattice resolution of the unit square.
	GridN int
	Seed  int64
}

// DefaultParams matches the example defaults.
func DefaultParams() Params {
	return Params{Points: 96, WalksPerBatch: 600, Batches: 8, GridN: 24, Seed: 3}
}

// App is one Monte Carlo instance.
type App struct {
	p  Params
	px []int // lattice coordinates of the estimation points
	py []int
}

// New places Points estimation points on an inner ring of the lattice.
func New(p Params) *App {
	if p.Points < 1 {
		p.Points = 1
	}
	if p.Batches < 1 {
		p.Batches = 1
	}
	if p.GridN < 8 {
		p.GridN = 8
	}
	a := &App{p: p, px: make([]int, p.Points), py: make([]int, p.Points)}
	n := float64(p.GridN)
	for k := 0; k < p.Points; k++ {
		th := 2 * math.Pi * float64(k) / float64(p.Points)
		x := int(math.Round(0.55*n + 0.22*n*math.Cos(th)))
		y := int(math.Round(0.45*n + 0.22*n*math.Sin(th)))
		a.px[k] = min(max(x, 1), p.GridN-1)
		a.py[k] = min(max(y, 1), p.GridN-1)
	}
	return a
}

// Tasks returns the number of tasks one Run submits.
func (a *App) Tasks() int { return a.p.Points * a.p.Batches }

// boundary evaluates the harmonic boundary condition at lattice (i, j).
func (a *App) boundary(i, j int) float64 {
	x := float64(i) / float64(a.p.GridN)
	y := float64(j) / float64(a.p.GridN)
	return x*x - y*y + 3*x + 8
}

// Exact returns the analytic solution at estimation point k.
func (a *App) Exact(k int) float64 { return a.boundary(a.px[k], a.py[k]) }

// batchMean runs one batch of walks from point k and returns the mean
// absorbed boundary value. Seeding is by (point, batch), so the estimate
// under any policy is a deterministic subset of the reference's samples.
func (a *App) batchMean(k, batch int) float64 {
	n := a.p.GridN
	src := rng.Raw(uint64(a.p.Seed)*0x9e3779b97f4a7c15 +
		uint64(k)*0xbf58476d1ce4e5b9 + uint64(batch)*0x94d049bb133111eb + 1)
	var sum float64
	for w := 0; w < a.p.WalksPerBatch; w++ {
		i, j := a.px[k], a.py[k]
		for i > 0 && i < n && j > 0 && j < n {
			// Two bits of the generator pick the direction.
			switch src.Uint64() >> 62 {
			case 0:
				i++
			case 1:
				i--
			case 2:
				j++
			default:
				j--
			}
		}
		sum += a.boundary(i, j)
	}
	return sum / float64(a.p.WalksPerBatch)
}

// Sequential computes the full-sample reference estimate.
func (a *App) Sequential() []float64 {
	est := make([]float64, a.p.Points)
	for k := range est {
		var sum float64
		for b := 0; b < a.p.Batches; b++ {
			sum += a.batchMean(k, b)
		}
		est[k] = sum / float64(a.p.Batches)
	}
	return est
}

// Run estimates all points under the runtime, one task per (point, batch).
func (a *App) Run(rt *sig.Runtime, ratio float64) []float64 {
	nb := a.p.Batches
	means := make([]float64, a.p.Points*nb)
	done := make([]bool, a.p.Points*nb)
	grp := rt.Group("mc", ratio)
	for k := 0; k < a.p.Points; k++ {
		for b := 0; b < nb; b++ {
			k, b := k, b
			slot := k*nb + b
			sigv := 0.9
			if nb > 1 {
				// Early batches matter more: dropping late ones
				// only widens the estimator variance.
				sigv = 0.9 - 0.8*float64(b)/float64(nb-1)
			}
			// Expected walk length from (i,j) is i(n−i)+j(n−j) steps.
			esteps := float64(a.px[k]*(a.p.GridN-a.px[k]) + a.py[k]*(a.p.GridN-a.py[k]))
			rt.Submit(
				func() { means[slot] = a.batchMean(k, b); done[slot] = true },
				sig.WithLabel(grp),
				sig.WithSignificance(sigv),
				sig.WithCost(float64(a.p.WalksPerBatch)*esteps*2, 0),
			)
		}
	}
	rt.Wait(grp)
	est := make([]float64, a.p.Points)
	for k := 0; k < a.p.Points; k++ {
		var sum float64
		var cnt int
		for b := 0; b < nb; b++ {
			if done[k*nb+b] {
				sum += means[k*nb+b]
				cnt++
			}
		}
		if cnt > 0 {
			est[k] = sum / float64(cnt)
		}
	}
	return est
}

// Quality is the mean relative error (%) of est against the reference.
func (a *App) Quality(ref, est []float64) float64 {
	var sum float64
	for k := range ref {
		sum += math.Abs(est[k]-ref[k]) / math.Abs(ref[k])
	}
	return 100 * sum / float64(len(ref))
}
