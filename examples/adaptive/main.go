// Adaptive example: closing the quality/energy loop on a streaming
// workload.
//
// The batch examples pick an accuracy ratio by hand and keep it forever.
// A long-running service cannot: the operator cares about "hold PSNR above
// 17 dB with minimum energy", and the right ratio depends on the content —
// which changes mid-stream. This walkthrough runs Sobel edge detection
// over a stream of frames under an adapt.Controller that owns the group's
// ratio:
//
//  1. the stream starts fully accurate; the controller walks the ratio
//     down to the cheapest point that still holds the PSNR setpoint
//     (step response);
//  2. halfway through, the scene switches to one with fine horizontal
//     texture the approximate kernel cannot reproduce; quality crashes,
//     and the controller walks the ratio back up until the setpoint holds
//     again (disturbance rejection).
//
// Run with:
//
//	go run ./examples/adaptive [-size 512] [-setpoint 17] [-waves 24]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/bench/sobel"
	"repro/internal/imaging"
	"repro/sig"
	"repro/sig/adapt"
)

func main() {
	size := flag.Int("size", 512, "frame edge length in pixels")
	setpoint := flag.Float64("setpoint", 17, "PSNR setpoint in dB")
	waves := flag.Int("waves", 24, "number of frames to stream")
	flag.Parse()

	app := sobel.New(sobel.Params{W: *size, H: *size, Seed: 1})
	ref := app.Sequential()
	out := imaging.NewImage(*size, *size)

	// The controller regulates the group it is handed: after every wave it
	// reads the quality probe and retunes the group's ratio. TargetQuality
	// treats the setpoint as a floor — it settles at the cheapest ratio
	// keeping the probe at or above it.
	ctl, err := adapt.New(adapt.Config{
		Objective: adapt.TargetQuality,
		Setpoint:  *setpoint,
		Probe:     func() float64 { return imaging.PSNR(ref, out) },
	})
	if err != nil {
		log.Fatal(err)
	}

	// Max buffering makes each wave's decisions exact, so the whole run is
	// deterministic and replayable.
	rt, err := sig.New(sig.Config{Policy: sig.PolicyGTBMaxBuffer})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	grp := rt.Group("sobel", 1.0) // wave 0 runs fully accurate

	fmt.Printf("streaming %d frames of %dx%d sobel, PSNR setpoint %.1f dB\n\n",
		*waves, *size, *size, *setpoint)
	fmt.Printf("%-5s %-6s %6s %6s %8s %10s\n", "wave", "scene", "req%", "prov%", "PSNR", "energy")
	scene := "A"
	held := 0
	for w := 0; w < *waves; w++ {
		if w == *waves/2 {
			// Mid-stream scene change: heavy horizontal texture. The
			// reference (and thus the probe) tracks the new scene.
			app.SetScene(2, 0.75)
			ref = app.Sequential()
			scene = "B"
		}
		// One frame = one wave: submit the frame's row tasks, then
		// taskwait with telemetry and hand the wave to the controller,
		// which retunes grp's ratio for the next frame.
		app.SubmitFrame(rt, grp, out)
		ws := rt.WaitPhase(grp)
		step := ctl.Observe(grp, ws)
		if step.Held {
			held++
		}
		fmt.Printf("%-5d %-6s %6.1f %6.1f %8.2f %9.4fJ\n",
			w, scene, 100*ws.RequestedRatio, 100*ws.ProvidedRatio, step.Measure, ws.Joules)
	}

	fmt.Printf("\ncontroller: %d waves observed, %d at steady state, final ratio %.3f\n",
		*waves, held, grp.Ratio())
	fmt.Println("rerun it: the trajectory is bit-identical — fixed inputs, modeled costs,")
	fmt.Println("deterministic decisions and a pure-arithmetic control law.")
}
