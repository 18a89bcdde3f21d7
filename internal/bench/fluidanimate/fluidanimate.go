// Package fluidanimate is the paper's SPH benchmark, reduced to a 2D
// smoothed-particle toy: particles under gravity with short-range repulsion
// found through a uniform grid. The approximation pattern is the paper's
// alternating-ratio idiom — the per-step taskwait ratio flips between 1.0
// (full force computation) and 0.0 (gravity-only step) with a configurable
// accurate-step period. Loop perforation cannot express this: dropping the
// movement of a subset of particles would violate the physics.
package fluidanimate

import (
	"math"

	"repro/internal/rng"
	"repro/sig"
)

// Params sizes the problem.
type Params struct {
	// N particles simulated for Steps time steps; Chunk is the task
	// granularity.
	N, Steps, Chunk int
	Seed            int64
}

// DefaultParams matches the example defaults.
func DefaultParams() Params { return Params{N: 4096, Steps: 30, Chunk: 256, Seed: 5} }

// State is the observable outcome of a simulation: particle positions.
type State struct {
	Pos []float64 // x0,y0,x1,y1,...
}

// Physics constants of the toy model.
const (
	dt      = 0.003
	gravity = -1.0
	radius  = 0.03 // interaction radius (also the grid cell size)
	stiff   = 40.0 // repulsion stiffness
	damp    = 0.999
)

// App is one simulation instance.
type App struct {
	p     Params
	cells int
}

// New validates parameters.
func New(p Params) *App {
	if p.N < 16 {
		p.N = 16
	}
	if p.Chunk <= 0 {
		p.Chunk = 256
	}
	if p.Steps < 1 {
		p.Steps = 1
	}
	return &App{p: p, cells: int(math.Ceil(1 / radius))}
}

// Tasks returns the number of tasks one time step submits.
func (a *App) Tasks() int { return (a.p.N + a.p.Chunk - 1) / a.p.Chunk }

// initState seeds particles in a block at the top of the box.
func (a *App) initState() (pos, vel []float64) {
	pos = make([]float64, 2*a.p.N)
	vel = make([]float64, 2*a.p.N)
	src := rng.Raw(uint64(a.p.Seed)*0x9e3779b97f4a7c15 + 17)
	for i := 0; i < a.p.N; i++ {
		pos[2*i] = 0.1 + 0.8*src.Float64()
		pos[2*i+1] = 0.5 + 0.45*src.Float64()
	}
	return pos, vel
}

// grid is a rebuilt-per-step uniform spatial hash.
type grid struct {
	cells int
	start []int32
	items []int32
}

func buildGrid(pos []float64, n, cells int) *grid {
	g := &grid{cells: cells, start: make([]int32, cells*cells+1), items: make([]int32, n)}
	idx := func(i int) int {
		cx := min(int(pos[2*i]*float64(cells)), cells-1)
		cy := min(int(pos[2*i+1]*float64(cells)), cells-1)
		return max(cy, 0)*cells + max(cx, 0)
	}
	for i := 0; i < n; i++ {
		g.start[idx(i)+1]++
	}
	for c := 1; c <= cells*cells; c++ {
		g.start[c] += g.start[c-1]
	}
	fill := make([]int32, cells*cells)
	for i := 0; i < n; i++ {
		c := idx(i)
		g.items[g.start[c]+fill[c]] = int32(i)
		fill[c]++
	}
	return g
}

// forces computes accelerations for particles [lo,hi) from the grid.
func (a *App) forces(pos, acc []float64, g *grid, lo, hi int) {
	for i := lo; i < hi; i++ {
		ax, ay := 0.0, gravity
		xi, yi := pos[2*i], pos[2*i+1]
		cx := min(max(int(xi*float64(g.cells)), 0), g.cells-1)
		cy := min(max(int(yi*float64(g.cells)), 0), g.cells-1)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= g.cells || ny >= g.cells {
					continue
				}
				c := ny*g.cells + nx
				for k := g.start[c]; k < g.start[c+1]; k++ {
					j := int(g.items[k])
					if j == i {
						continue
					}
					ddx, ddy := xi-pos[2*j], yi-pos[2*j+1]
					d2 := ddx*ddx + ddy*ddy
					if d2 >= radius*radius || d2 == 0 {
						continue
					}
					d := math.Sqrt(d2)
					f := stiff * (radius - d) / d
					ax += f * ddx
					ay += f * ddy
				}
			}
		}
		acc[2*i] = ax
		acc[2*i+1] = ay
	}
}

// gravityOnly is the approximate force body.
func gravityOnly(acc []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		acc[2*i] = 0
		acc[2*i+1] = gravity
	}
}

// integrate advances particles and bounces them off the walls.
func integrate(pos, vel, acc []float64, n int) {
	for i := 0; i < n; i++ {
		vel[2*i] = damp*vel[2*i] + dt*acc[2*i]
		vel[2*i+1] = damp*vel[2*i+1] + dt*acc[2*i+1]
		pos[2*i] += dt * vel[2*i]
		pos[2*i+1] += dt * vel[2*i+1]
		for d := 0; d < 2; d++ {
			if pos[2*i+d] < 0 {
				pos[2*i+d] = -pos[2*i+d]
				vel[2*i+d] = -0.5 * vel[2*i+d]
			}
			if pos[2*i+d] > 1 {
				pos[2*i+d] = 2 - pos[2*i+d]
				vel[2*i+d] = -0.5 * vel[2*i+d]
			}
		}
	}
}

// Sequential runs the fully accurate simulation without the runtime.
func (a *App) Sequential() State {
	pos, vel := a.initState()
	acc := make([]float64, 2*a.p.N)
	for s := 0; s < a.p.Steps; s++ {
		g := buildGrid(pos, a.p.N, a.cells)
		a.forces(pos, acc, g, 0, a.p.N)
		integrate(pos, vel, acc, a.p.N)
	}
	return State{Pos: pos}
}

// Run simulates with an accurate force step every `every` steps; the steps
// in between run with the per-step taskwait ratio set to 0.0, which makes
// every force task take its approximate (gravity-only) body. This is the
// paper's alternating ratio clause expressed on the Go API.
func (a *App) Run(rt *sig.Runtime, every int) State {
	if every < 1 {
		every = 1
	}
	pos, vel := a.initState()
	acc := make([]float64, 2*a.p.N)
	for s := 0; s < a.p.Steps; s++ {
		ratio := 0.0
		if s%every == 0 {
			ratio = 1.0
		}
		grp := rt.Group("fluidanimate", ratio)
		var g *grid
		if ratio > 0 {
			g = buildGrid(pos, a.p.N, a.cells)
		}
		for c := 0; c < a.Tasks(); c++ {
			lo := c * a.p.Chunk
			hi := min(lo+a.p.Chunk, a.p.N)
			rt.Submit(
				func() { a.forces(pos, acc, g, lo, hi) },
				sig.WithLabel(grp),
				sig.WithSignificance(0.5),
				sig.WithApprox(func() { gravityOnly(acc, lo, hi) }),
				// Neighborhood force evaluation vs a constant
				// store per particle.
				sig.WithCost(float64((hi-lo)*160), float64((hi-lo)*4)),
			)
		}
		rt.Wait(grp)
		integrate(pos, vel, acc, a.p.N)
	}
	return State{Pos: pos}
}

// RunRatio adapts the harness's single accuracy-ratio knob to the
// accurate-step period: ratio 0.5 runs every 2nd step accurately, 0.25
// every 4th, and so on.
func (a *App) RunRatio(rt *sig.Runtime, ratio float64) State {
	every := a.p.Steps
	if ratio >= 1 {
		every = 1
	} else if ratio > 0 {
		every = min(int(math.Round(1/ratio)), a.p.Steps)
	}
	return a.Run(rt, every)
}

// Quality is the mean particle displacement versus the reference, as a
// percentage of the box diagonal.
func (a *App) Quality(ref, res State) float64 {
	var sum float64
	n := len(ref.Pos) / 2
	for i := 0; i < n; i++ {
		dx := res.Pos[2*i] - ref.Pos[2*i]
		dy := res.Pos[2*i+1] - ref.Pos[2*i+1]
		sum += math.Sqrt(dx*dx + dy*dy)
	}
	return 100 * sum / float64(n) / math.Sqrt2
}
