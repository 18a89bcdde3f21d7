// Package sobel is the paper's running example (Listing 1): Sobel edge
// detection with one task per output row. The approximate task body replaces
// the 3×3 convolution with a two-point horizontal gradient, and dropped rows
// stay black — which is what makes the Figure 1/3 mosaics legible.
package sobel

import (
	"math"

	"repro/internal/imaging"
	"repro/sig"
)

// Params sizes the problem.
type Params struct {
	W, H int
	Seed int64
}

// DefaultParams matches the evaluation-scale input (a 2048² frame).
func DefaultParams() Params { return Params{W: 2048, H: 2048, Seed: 1} }

// App is a Sobel instance over a fixed synthetic input image.
type App struct {
	p   Params
	src *imaging.Image
}

// New builds the instance and renders its input image.
func New(p Params) *App {
	if p.W < 8 {
		p.W = 8
	}
	if p.H < 8 {
		p.H = 8
	}
	return &App{p: p, src: imaging.Synthetic(p.W, p.H, p.Seed)}
}

// Input exposes the source image (for mosaics).
func (a *App) Input() *imaging.Image { return a.src.Clone() }

// Tasks returns the number of tasks one Run submits.
func (a *App) Tasks() int { return a.p.H - 2 }

// Sequential computes the fully accurate reference without the runtime.
func (a *App) Sequential() *imaging.Image {
	out := imaging.NewImage(a.p.W, a.p.H)
	for y := 1; y < a.p.H-1; y++ {
		a.accurateRow(out, y)
	}
	return out
}

// Run executes the filter on rt, one task per row, asking for the given
// accurate ratio. Row significance cycles through nine levels exactly as
// Listing 1's significant((i%9+1)/10) clause.
func (a *App) Run(rt *sig.Runtime, ratio float64) *imaging.Image {
	out := imaging.NewImage(a.p.W, a.p.H)
	grp := rt.Group("sobel", ratio)
	a.SubmitFrame(rt, grp, out)
	rt.Wait(grp)
	return out
}

// SetScene replaces the input image with a new synthetic scene — the
// mid-stream scene change of the streaming/adaptive workload. detail > 0
// adds horizontal texture the 2-point-gradient approximation cannot
// reproduce, raising the accurate ratio a given PSNR costs.
func (a *App) SetScene(seed int64, detail float64) {
	a.src = imaging.SyntheticDetail(a.p.W, a.p.H, seed, detail)
}

// SubmitFrame submits one frame's row tasks on grp without waiting: the
// streaming surface. The caller owns the taskwait (rt.WaitPhase for
// per-wave telemetry) and the group's ratio — SubmitFrame never resets it,
// so an adaptive controller the caller hands each wave to
// (adapt.Controller.Observe) can retune the ratio between frames.
func (a *App) SubmitFrame(rt *sig.Runtime, grp *sig.Group, out *imaging.Image) {
	for y := 1; y < a.p.H-1; y++ {
		y := y
		rt.Submit(
			func() { a.accurateRow(out, y) },
			sig.WithLabel(grp),
			sig.WithSignificance(float64(y%9+1)/10),
			sig.WithApprox(func() { a.approxRow(out, y) }),
			// ~30 ops/pixel for the 3×3 convolution vs ~4 for the
			// 2-point gradient.
			sig.WithCost(30*float64(a.p.W), 4*float64(a.p.W)),
		)
	}
}

// accurateRow applies the full 3×3 Sobel operator to row y.
func (a *App) accurateRow(out *imaging.Image, y int) {
	w := a.p.W
	src := a.src.Pix
	dst := out.Row(y)
	for x := 1; x < w-1; x++ {
		up, mid, down := (y-1)*w+x, y*w+x, (y+1)*w+x
		gx := -int(src[up-1]) + int(src[up+1]) -
			2*int(src[mid-1]) + 2*int(src[mid+1]) -
			int(src[down-1]) + int(src[down+1])
		gy := -int(src[up-1]) - 2*int(src[up]) - int(src[up+1]) +
			int(src[down-1]) + 2*int(src[down]) + int(src[down+1])
		m := math.Sqrt(float64(gx*gx + gy*gy))
		if m > 255 {
			m = 255
		}
		dst[x] = uint8(m)
	}
}

// approxTable maps a two-point difference d, stored at (255+d)&511, onto
// the degraded pixel min(2|d|, 255). Index 511 (d = 256) is never read.
var approxTable = func() (t [512]uint8) {
	for i := range t {
		d := i - 255
		if d < 0 {
			d = -d
		}
		t[i] = uint8(min(2*d, 255))
	}
	return t
}()

// approxRow is the cheap degraded body: a two-point horizontal gradient,
// one table lookup a pixel. Pixel x-1 reads its neighbours x-2 and x, so the
// loop indexes within len(row) and carries no bounds check.
func (a *App) approxRow(out *imaging.Image, y int) {
	w := a.p.W
	row := a.src.Pix[y*w:][:w]
	dst := out.Row(y)[:w]
	for x := 2; x < len(row); x++ {
		dst[x-1] = approxTable[(255+int(row[x])-int(row[x-2]))&511]
	}
}

// Thumb renders the frame's full edge map into out with either the
// accurate 3×3 kernel or the degraded 2-point gradient — the per-request
// body of the serving backends (sobel thumbnailing). out must be W×H.
func (a *App) Thumb(out *imaging.Image, accurate bool) {
	if accurate {
		for y := 1; y < a.p.H-1; y++ {
			a.accurateRow(out, y)
		}
		return
	}
	for y := 1; y < a.p.H-1; y++ {
		a.approxRow(out, y)
	}
}

// ThumbCosts returns the declared cost units (~1ns, see sig.WithCost) of an
// accurate and a degraded Thumb render: the per-row figures SubmitFrame
// declares, summed over the frame.
func (a *App) ThumbCosts() (accurate, degraded float64) {
	rows := float64(a.p.H - 2)
	return 30 * float64(a.p.W) * rows, 4 * float64(a.p.W) * rows
}

// Size returns the frame dimensions.
func (a *App) Size() (w, h int) { return a.p.W, a.p.H }

// PSNR returns the PSNR of res against the reference in dB.
func (a *App) PSNR(ref, res *imaging.Image) float64 { return imaging.PSNR(ref, res) }

// Quality is the paper's "lower is better" metric for Sobel: 1/PSNR.
func (a *App) Quality(ref, res *imaging.Image) float64 {
	p := imaging.PSNR(ref, res)
	if math.IsInf(p, 1) {
		return 0
	}
	return 1 / p
}
