// Package dct implements the paper's DCT benchmark: an 8×8 blocked forward
// DCT where each task computes one zigzag frequency band for a stripe of
// blocks. Low-frequency bands carry high significance; approximating a band
// leaves its coefficients zero (the JPEG-style degradation), so no explicit
// approximate body is needed — the runtime's task-dropping path models it.
package dct

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/imaging"
	"repro/sig"
)

// bands is the number of zigzag coefficient groups (8 coefficients each).
const bands = 8

// Params sizes the problem.
type Params struct {
	W, H int
	Seed int64
}

// DefaultParams matches the evaluation-scale input.
func DefaultParams() Params { return Params{W: 2048, H: 2048, Seed: 2} }

// App is a DCT instance over a fixed synthetic image.
type App struct {
	p        Params
	src      *imaging.Image
	bw, bh   int // blocks per row / column
	cosTab   [8][8]float64
	zigzag   [64][2]int
	bandSize int
}

// New builds the instance; dimensions are trimmed to multiples of 8.
func New(p Params) *App {
	p.W = max(8, p.W-p.W%8)
	p.H = max(8, p.H-p.H%8)
	a := &App{p: p, src: imaging.Synthetic(p.W, p.H, p.Seed), bw: p.W / 8, bh: p.H / 8, bandSize: 64 / bands}
	for x := 0; x < 8; x++ {
		for u := 0; u < 8; u++ {
			a.cosTab[x][u] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
	a.zigzag = zigzagOrder()
	return a
}

// Tasks returns the number of tasks one Run submits.
func (a *App) Tasks() int { return a.bh * bands }

// Sequential computes the fully accurate reference reconstruction.
func (a *App) Sequential() *imaging.Image {
	coeffs := make([]float64, a.bw*a.bh*64)
	for brow := 0; brow < a.bh; brow++ {
		for band := 0; band < bands; band++ {
			a.bandStripe(coeffs, brow, band)
		}
	}
	return a.reconstruct(coeffs, 1)
}

// Run computes the DCT under the runtime and reconstructs the image from
// whichever coefficients were computed, on as many goroutines as the runtime
// has workers (they are parked once the taskwait returns).
func (a *App) Run(rt *sig.Runtime, ratio float64) *imaging.Image {
	return a.reconstruct(a.forward(rt, ratio), rt.Workers())
}

// forward submits one task per (block-row, band), significance decreasing
// with frequency band, and returns the coefficients after the taskwait; the
// bands the policy dropped stay zero.
func (a *App) forward(rt *sig.Runtime, ratio float64) []float64 {
	coeffs := make([]float64, a.bw*a.bh*64)
	grp := rt.Group("dct", ratio)
	for brow := 0; brow < a.bh; brow++ {
		for band := 0; band < bands; band++ {
			brow, band := brow, band
			rt.Submit(
				func() { a.bandStripe(coeffs, brow, band) },
				sig.WithLabel(grp),
				// Band 0 (DC + lowest AC) at 0.9 down to 0.2 for
				// the highest frequencies, as in the paper's
				// per-coefficient significance assignment.
				sig.WithSignificance(0.9-float64(band)/10),
				// 8 coefficients × 64 pixels × 2 ops per block;
				// an approximated band is dropped outright.
				sig.WithCost(float64(a.bw*8*64*2), 0),
			)
		}
	}
	rt.Wait(grp)
	return coeffs
}

// bandStripe computes the 8 zigzag coefficients of one band for every block
// of block-row brow.
func (a *App) bandStripe(coeffs []float64, brow, band int) {
	for bcol := 0; bcol < a.bw; bcol++ {
		base := (brow*a.bw + bcol) * 64
		px, py := bcol*8, brow*8
		for k := band * a.bandSize; k < (band+1)*a.bandSize; k++ {
			u, v := a.zigzag[k][0], a.zigzag[k][1]
			var sum float64
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					sum += float64(a.src.At(px+x, py+y)) * a.cosTab[x][u] * a.cosTab[y][v]
				}
			}
			sum *= alpha(u) * alpha(v) / 4
			coeffs[base+v*8+u] = sum
		}
	}
}

// reconstruct runs the inverse DCT over every block, fanning the block rows
// out over workers goroutines that claim rows from one cursor. The inverse is
// the master's decode, not a task: modeled energy charges declared task costs
// only, so it never goes through rt.Submit. At one worker it is a plain loop
// and starts no goroutine — that is the path Sequential takes.
func (a *App) reconstruct(coeffs []float64, workers int) *imaging.Image {
	out := imaging.NewImage(a.p.W, a.p.H)
	workers = min(workers, a.bh)
	if workers <= 1 {
		for brow := 0; brow < a.bh; brow++ {
			a.inverseRow(out, coeffs, brow)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				brow := int(next.Add(1)) - 1
				if brow >= a.bh {
					return
				}
				a.inverseRow(out, coeffs, brow)
			}
		}()
	}
	wg.Wait()
	return out
}

// inverseRow runs the inverse DCT over the blocks of block-row brow. Rows
// write disjoint pixels, so any number of them may run at once.
func (a *App) inverseRow(out *imaging.Image, coeffs []float64, brow int) {
	// A block's non-zero coefficients, scaled once and compacted in (v, u)
	// order: the pixel loop then sums exactly the terms the 64-slot scan
	// would, in the same order, without the scaling or the zero test. (The
	// &7 on an index that is already below 8 spares the bounds check.)
	var scaled [64]float64
	var us, vs [64]uint8
	for bcol := 0; bcol < a.bw; bcol++ {
		base := (brow*a.bw + bcol) * 64
		px, py := bcol*8, brow*8
		n := 0
		for v := 0; v < 8; v++ {
			for u := 0; u < 8; u++ {
				c := coeffs[base+v*8+u]
				if c == 0 {
					continue
				}
				scaled[n], us[n], vs[n] = alpha(u)*alpha(v)/4*c, uint8(u), uint8(v)
				n++
			}
		}
		for y := 0; y < 8; y++ {
			row := out.Pix[(py+y)*out.W+px:][:8]
			cy := &a.cosTab[y]
			for x := 0; x < 8; x++ {
				cx := &a.cosTab[x]
				var sum float64
				for k, s := range scaled[:n] {
					sum += s * cx[us[k]&7] * cy[vs[k]&7]
				}
				if sum < 0 {
					sum = 0
				}
				if sum > 255 {
					sum = 255
				}
				row[x] = uint8(sum)
			}
		}
	}
}

func alpha(u int) float64 {
	if u == 0 {
		return 1 / math.Sqrt2
	}
	return 1
}

// zigzagOrder returns the JPEG zigzag scan as (u, v) pairs.
func zigzagOrder() [64][2]int {
	var order [64][2]int
	i := 0
	for s := 0; s < 15; s++ {
		if s%2 == 0 { // walk up-right
			for v := min(s, 7); v >= 0 && s-v <= 7; v-- {
				order[i] = [2]int{s - v, v}
				i++
			}
		} else { // walk down-left
			for u := min(s, 7); u >= 0 && s-u <= 7; u-- {
				order[i] = [2]int{u, s - u}
				i++
			}
		}
	}
	return order
}

// PSNR returns the PSNR of res against the reference in dB.
func (a *App) PSNR(ref, res *imaging.Image) float64 { return imaging.PSNR(ref, res) }

// Quality is 1/PSNR (lower is better); 0 for identical images.
func (a *App) Quality(ref, res *imaging.Image) float64 {
	p := imaging.PSNR(ref, res)
	if math.IsInf(p, 1) {
		return 0
	}
	return 1 / p
}
