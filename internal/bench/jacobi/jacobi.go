// Package jacobi is the paper's iterative-solver benchmark: Jacobi sweeps of
// the Laplace equation on the unit square. Each sweep is decomposed into
// row-block tasks; the approximate body updates every other row and carries
// the rest over from the previous sweep, and block significance follows the
// block's residual from the previous sweep — refining where the solution
// still moves.
package jacobi

import (
	"math"

	"repro/sig"
)

// Params sizes the problem.
type Params struct {
	// N is the grid edge length (including boundary); Sweeps the fixed
	// Jacobi iteration count; Block the rows per task.
	N, Sweeps, Block int
}

// DefaultParams matches the evaluation-scale problem.
func DefaultParams() Params { return Params{N: 512, Sweeps: 100, Block: 16} }

// App is one solver instance.
type App struct {
	p Params
}

// New validates the parameters.
func New(p Params) *App {
	if p.N < 8 {
		p.N = 8
	}
	if p.Block <= 0 {
		p.Block = 16
	}
	if p.Sweeps < 1 {
		p.Sweeps = 1
	}
	return &App{p: p}
}

// Tasks returns the number of tasks one sweep submits.
func (a *App) Tasks() int { return (a.p.N - 2 + a.p.Block - 1) / a.p.Block }

// initGrid builds the start grid: harmonic boundary values, with the
// interior seeded at the boundary mean so the sweeps refine a reasonable
// guess (rather than measuring raw convergence speed from zero).
func (a *App) initGrid() []float64 {
	n := a.p.N
	u := make([]float64, n*n)
	f := func(i, j int) float64 {
		x, y := float64(i)/float64(n-1), float64(j)/float64(n-1)
		return x*x - y*y + 3*x + 8
	}
	var mean float64
	for i := 0; i < n; i++ {
		u[i] = f(i, 0)
		u[(n-1)*n+i] = f(i, n-1)
		u[i*n] = f(0, i)
		u[i*n+n-1] = f(n-1, i)
		mean += u[i] + u[(n-1)*n+i] + u[i*n] + u[i*n+n-1]
	}
	mean /= float64(4 * n)
	for j := 1; j < n-1; j++ {
		for i := 1; i < n-1; i++ {
			u[j*n+i] = mean
		}
	}
	return u
}

// Sequential runs all sweeps fully accurately without the runtime.
func (a *App) Sequential() []float64 {
	n := a.p.N
	u, v := a.initGrid(), a.initGrid()
	for s := 0; s < a.p.Sweeps; s++ {
		for y := 1; y < n-1; y++ {
			sweepRow(u, v, n, y)
		}
		u, v = v, u
	}
	return u
}

// Run executes the solver under the runtime, one task per row block per
// sweep.
func (a *App) Run(rt *sig.Runtime, ratio float64) []float64 {
	n := a.p.N
	u, v := a.initGrid(), a.initGrid()
	nb := a.Tasks()
	delta := make([]float64, nb)
	signif := make([]float64, nb)
	for b := range signif {
		signif[b] = 0.9
	}
	grp := rt.Group("jacobi", ratio)
	for s := 0; s < a.p.Sweeps; s++ {
		uo, vo := u, v
		for b := 0; b < nb; b++ {
			b := b
			lo := 1 + b*a.p.Block
			hi := min(lo+a.p.Block, n-1)
			delta[b] = 0
			rt.Submit(
				func() { // accurate: full stencil on every row
					var dmax float64
					for y := lo; y < hi; y++ {
						d := sweepRow(uo, vo, n, y)
						if d > dmax {
							dmax = d
						}
					}
					delta[b] = dmax
				},
				sig.WithLabel(grp),
				sig.WithSignificance(signif[b]),
				sig.WithApprox(func() { // approximate: every other row
					var dmax float64
					for y := lo; y < hi; y++ {
						if (y-lo)%2 == 0 {
							d := sweepRow(uo, vo, n, y)
							if d > dmax {
								dmax = d
							}
						} else {
							copy(vo[y*n+1:(y+1)*n-1], uo[y*n+1:(y+1)*n-1])
						}
					}
					delta[b] = dmax
				}),
				// Full stencil on all rows vs stencil on half the
				// rows plus copies for the rest.
				sig.WithCost(float64((hi-lo)*n*6), float64((hi-lo)*n*6/2+(hi-lo)*n/2)),
			)
		}
		rt.Wait(grp)
		// Residual-driven significance for the next sweep.
		var dmax float64
		for _, d := range delta {
			if d > dmax {
				dmax = d
			}
		}
		for b := range signif {
			if dmax > 0 {
				signif[b] = 0.1 + 0.8*delta[b]/dmax
			}
		}
		u, v = v, u
	}
	return u
}

// sweepRow applies one Jacobi update to row y, returning the row's max
// absolute change.
func sweepRow(src, dst []float64, n, y int) float64 {
	var dmax float64
	for x := 1; x < n-1; x++ {
		i := y*n + x
		nv := 0.25 * (src[i-1] + src[i+1] + src[i-n] + src[i+n])
		d := math.Abs(nv - src[i])
		if d > dmax {
			dmax = d
		}
		dst[i] = nv
	}
	return dmax
}

// Quality is the relative L2 error (%) of res against the reference grid.
func (a *App) Quality(ref, res []float64) float64 {
	var num, den float64
	for i := range ref {
		d := res[i] - ref[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	if den == 0 {
		return 0
	}
	return 100 * math.Sqrt(num/den)
}
