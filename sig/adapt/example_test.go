package adapt_test

import (
	"fmt"

	"repro/internal/bench/sobel"
	"repro/internal/imaging"
	"repro/sig"
	"repro/sig/adapt"
)

// ExampleController closes the quality/energy loop on a stream of Sobel
// frames, one frame a wave. The controller holds PSNR at or above a 17 dB
// setpoint at the cheapest ratio: from a fully accurate start it walks the
// ratio down (step response), and when the scene switches mid-stream to
// texture the approximate rows cannot reproduce, it walks the ratio back up
// (disturbance rejection). Costs are declared, so every column replays
// bit-identically.
func ExampleController() {
	const size, waves = 64, 12
	app := sobel.New(sobel.Params{W: size, H: size, Seed: 1})
	ref := app.Sequential()
	out := imaging.NewImage(size, size)

	ctl, err := adapt.New(adapt.Config{
		Objective: adapt.TargetQuality, // the setpoint is a floor
		Setpoint:  17,
		Probe:     func() float64 { return imaging.PSNR(ref, out) },
	})
	if err != nil {
		panic(err)
	}
	rt, err := sig.New(sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer})
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	grp := rt.Group("sobel", 1.0)

	fmt.Println("wave scene  req%  prov%   PSNR      µJ")
	scene := "A"
	for w := range waves {
		if w == waves/2 {
			app.SetScene(2, 0.75) // fine horizontal texture
			ref, scene = app.Sequential(), "B"
		}
		app.SubmitFrame(rt, grp, out)
		ws := rt.WaitPhase(grp)
		step := ctl.Observe(grp, ws) // retunes grp's ratio for the next frame
		fmt.Printf("%4d %-5s %5.1f %6.1f %6.2f %7.1f\n",
			w, scene, 100*ws.RequestedRatio, 100*ws.ProvidedRatio, step.Measure, 1e6*ws.Joules)
	}
	fmt.Printf("final ratio %.3f\n", grp.Ratio())
	// Output:
	// wave scene  req%  prov%   PSNR      µJ
	//    0 A     100.0  100.0   +Inf  1428.5
	//    1 A      75.0   75.8  19.01  1129.0
	//    2 A      69.1   69.4  18.15  1049.1
	//    3 A      61.2   61.3  16.62   949.2
	//    4 A      63.2   62.9  16.72   969.2
	//    5 A      68.3   67.7  17.68  1029.1
	//    6 B      68.3   67.7  15.21  1029.1
	//    7 B      73.5   74.2  16.16  1109.0
	//    8 B      78.2   77.4  16.64  1148.9
	//    9 B      81.6   82.3  18.21  1208.8
	//   10 B      79.0   79.0  17.56  1168.9
	//   11 B      79.0   79.0  17.56  1168.9
	// final ratio 0.790
}
