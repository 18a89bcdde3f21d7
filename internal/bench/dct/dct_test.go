package dct

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/imaging"
	"repro/sig"
)

// naiveInverse is the inverse DCT as it stood before inverseRow replaced it:
// every pixel scans all 64 coefficient slots of its block. Kept verbatim as
// the oracle the shared implementation must match byte for byte.
func naiveInverse(a *App, coeffs []float64) *imaging.Image {
	out := imaging.NewImage(a.p.W, a.p.H)
	for brow := 0; brow < a.bh; brow++ {
		for bcol := 0; bcol < a.bw; bcol++ {
			base := (brow*a.bw + bcol) * 64
			px, py := bcol*8, brow*8
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					var sum float64
					for v := 0; v < 8; v++ {
						for u := 0; u < 8; u++ {
							c := coeffs[base+v*8+u]
							if c == 0 {
								continue
							}
							sum += alpha(u) * alpha(v) / 4 * c * a.cosTab[x][u] * a.cosTab[y][v]
						}
					}
					if sum < 0 {
						sum = 0
					}
					if sum > 255 {
						sum = 255
					}
					out.Set(px+x, py+y, uint8(sum))
				}
			}
		}
	}
	return out
}

// coefficients runs the forward transform under GTB(max) at ratio, so the
// set of dropped bands is the one the benchmark's golden run reconstructs.
func coefficients(t *testing.T, a *App, ratio float64) []float64 {
	t.Helper()
	rt, err := sig.New(sig.Config{Workers: 2, Policy: sig.PolicyGTBMaxBuffer})
	if err != nil {
		t.Fatal(err)
	}
	coeffs := a.forward(rt, ratio)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	return coeffs
}

func TestInverseMatchesNaiveOracle(t *testing.T) {
	shapes := []struct {
		name string
		p    Params
		bh   int
	}{
		// 64 block rows divide by neither 3 nor 5 workers; the image is
		// narrow so the race build stays quick.
		{"64rows", Params{W: 72, H: 512, Seed: 2}, 64},
		{"fewerRowsThanWorkers", Params{W: 64, H: 16, Seed: 3}, 2},
		{"trimmed", Params{W: 70, H: 45, Seed: 4}, 5},
	}
	ratios := []struct {
		name  string
		ratio float64
	}{{"accurate", 1.0}, {"gtbmax0.4", 0.4}, {"allDropped", 0.0}}
	for _, sh := range shapes {
		a := New(sh.p)
		if a.bh != sh.bh || a.p.W%8 != 0 || a.p.H%8 != 0 {
			t.Fatalf("%s: %dx%d with %d block rows, want %d rows of whole blocks", sh.name, a.p.W, a.p.H, a.bh, sh.bh)
		}
		for _, r := range ratios {
			coeffs := coefficients(t, a, r.ratio)
			nonzero := 0
			for _, c := range coeffs {
				if c != 0 {
					nonzero++
				}
			}
			if (r.ratio == 0) != (nonzero == 0) || (r.ratio == 1) != (nonzero == len(coeffs)) {
				t.Fatalf("%s/%s: %d of %d coefficients non-zero", sh.name, r.name, nonzero, len(coeffs))
			}
			want := naiveInverse(a, coeffs)
			for _, workers := range []int{1, 2, 3, 5} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", sh.name, r.name, workers), func(t *testing.T) {
					got := a.reconstruct(coeffs, workers)
					if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
						t.Fatalf("image differs from the naive inverse (first at pixel %d)", firstDiff(got.Pix, want.Pix))
					}
				})
			}
		}
	}
}

// TestRunAccurateEqualsSequential: the all-accurate task-parallel run and the
// sequential reference produce the same bytes at any worker count.
func TestRunAccurateEqualsSequential(t *testing.T) {
	a := New(Params{W: 72, H: 512, Seed: 2})
	want := a.Sequential()
	if !bytes.Equal(want.Pix, naiveInverse(a, coefficients(t, a, 1.0)).Pix) {
		t.Fatal("Sequential differs from the naive inverse of the accurate coefficients")
	}
	for _, workers := range []int{1, 2, 3, 5} {
		rt, err := sig.New(sig.Config{Workers: workers, Policy: sig.PolicyAccurate})
		if err != nil {
			t.Fatal(err)
		}
		got := a.Run(rt, 1.0)
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("workers=%d: Run(1.0) differs from Sequential (first at pixel %d)", workers, firstDiff(got.Pix, want.Pix))
		}
	}
}

func firstDiff(a, b []uint8) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// BenchmarkInverse times the sequential inverse of the benchmark-scale image
// at the two coefficient densities paper_apps reconstructs.
func BenchmarkInverse(b *testing.B) {
	a := New(Params{W: 512, H: 512, Seed: 2})
	for _, density := range []struct {
		name  string
		bands int
	}{{"accurate", bands}, {"ratio0.4", 3}} {
		coeffs := make([]float64, a.bw*a.bh*64)
		for brow := 0; brow < a.bh; brow++ {
			for band := 0; band < density.bands; band++ {
				a.bandStripe(coeffs, brow, band)
			}
		}
		b.Run(density.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.reconstruct(coeffs, 1)
			}
		})
	}
}
