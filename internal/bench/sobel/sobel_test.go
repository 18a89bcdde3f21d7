package sobel

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/imaging"
)

// refApproxPixel is the degraded pixel's formula as the two-point gradient
// first computed it, branch by branch: twice the absolute difference,
// saturated at 255.
func refApproxPixel(left, right uint8) uint8 {
	d := int(right) - int(left)
	if d < 0 {
		d = -d
	}
	d *= 2
	if d > 255 {
		d = 255
	}
	return uint8(d)
}

// refApproxRow is the degraded row's reference loop, indexing the source
// image pixel by pixel; approxRow must write the same bytes.
func refApproxRow(a *App, out *imaging.Image, y int) {
	w := a.p.W
	src := a.src.Pix
	dst := out.Row(y)
	for x := 1; x < w-1; x++ {
		dst[x] = refApproxPixel(src[y*w+x-1], src[y*w+x+1])
	}
}

// TestApproxTableMatchesFormula checks the lookup table against the
// formula at every difference two bytes can have, -255 through 255.
func TestApproxTableMatchesFormula(t *testing.T) {
	for d := -255; d <= 255; d++ {
		left, right := uint8(max(0, -d)), uint8(max(0, d))
		want := refApproxPixel(left, right)
		if got := approxTable[(255+d)&511]; got != want {
			t.Errorf("difference %d: table %d, formula %d", d, got, want)
		}
	}
}

// TestApproxRowMatchesReference runs approxRow and the reference loop over
// every interior row of each scene, at widths around the word and cache-line
// sizes, and requires the same bytes everywhere: the border columns the body
// never writes included. The noise scene reaches every difference.
func TestApproxRowMatchesReference(t *testing.T) {
	const h = 12
	for _, w := range []int{8, 9, 63, 64, 65, 512} {
		a := New(Params{W: w, H: h, Seed: 7})
		scenes := []struct {
			name string
			src  *imaging.Image
		}{
			{"synthetic", imaging.Synthetic(w, h, 7)},
			{"detail", imaging.SyntheticDetail(w, h, 7, 0.75)},
			{"noise", noise(w, h)},
		}
		for _, sc := range scenes {
			t.Run(fmt.Sprintf("%s/%d", sc.name, w), func(t *testing.T) {
				a.src = sc.src
				got, want := imaging.NewImage(w, h), imaging.NewImage(w, h)
				for i := range got.Pix {
					got.Pix[i], want.Pix[i] = 0xa5, 0xa5
				}
				for y := 1; y < h-1; y++ {
					a.approxRow(got, y)
					refApproxRow(a, want, y)
				}
				if !bytes.Equal(got.Pix, want.Pix) {
					for i := range got.Pix {
						if got.Pix[i] != want.Pix[i] {
							t.Fatalf("pixel (%d,%d): approxRow %d, reference %d", i%w, i/w, got.Pix[i], want.Pix[i])
						}
					}
				}
			})
		}
	}
}

// noise is a w×h image of pseudo-random bytes.
func noise(w, h int) *imaging.Image {
	im := imaging.NewImage(w, h)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range im.Pix {
		s = s*6364136223846793005 + 1442695040888963407
		im.Pix[i] = uint8(s >> 56)
	}
	return im
}

// BenchmarkThumb renders one frame per iteration with each body: at the
// serving backends' frame (64×64, sigserve's default -scale 0.25) and at the
// paper frame (512×512, the evaluation's 0.25 scale).
func BenchmarkThumb(b *testing.B) {
	for _, body := range []struct {
		name     string
		accurate bool
	}{{"accurate", true}, {"degraded", false}} {
		for _, n := range []int{64, 512} {
			b.Run(fmt.Sprintf("%s/%dx%d", body.name, n, n), func(b *testing.B) {
				a := New(Params{W: n, H: n, Seed: 1})
				out := imaging.NewImage(n, n)
				b.SetBytes(int64(n * n))
				for b.Loop() {
					a.Thumb(out, body.accurate)
				}
			})
		}
	}
}
