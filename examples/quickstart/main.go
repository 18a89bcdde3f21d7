// Quickstart: the smallest end-to-end use of the significance-aware runtime.
//
// A batch of tasks computes squares of integers. Tasks handling small inputs
// are declared less significant and carry an approximate body (a cheap
// linear estimate); the taskwait ratio asks for 60% of the tasks to run
// accurately. The run prints which tasks ran accurately, the achieved ratio
// and the modeled energy.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/sig"
)

func main() {
	rt, err := sig.New(sig.Config{
		Workers: 4,
		Policy:  sig.PolicyGTBMaxBuffer, // buffer all tasks, decide exactly
	})
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	const n = 20
	results := make([]float64, n)
	exact := make([]bool, n)

	// tpc_init_group: group "squares" with 60% of tasks accurate.
	grp := rt.Group("squares", 0.6)

	for i := 0; i < n; i++ {
		i := i
		x := float64(i)
		rt.Submit(
			func() { results[i] = x * x; exact[i] = true }, // accurate body
			sig.WithLabel(grp),
			// Larger inputs contribute more to the final sum, so they
			// are more significant (range 0.1..0.9, avoiding the
			// unconditional special values 0.0 and 1.0).
			sig.WithSignificance(0.1+0.8*float64(i)/float64(n-1)),
			// approxfun: a crude linear estimate.
			sig.WithApprox(func() { results[i] = 2*x - 1 }),
		)
	}

	// #pragma omp taskwait label(squares)
	rt.Wait(grp)

	var sum float64
	fmt.Println("task  input  result  accurate?")
	for i, r := range results {
		fmt.Printf("%4d %6d %7.1f  %v\n", i, i, r, exact[i])
		sum += r
	}
	fmt.Printf("\nsum of squares (approximate): %.1f (exact would be %d)\n", sum, (n-1)*n*(2*n-1)/6)

	st := rt.Stats()
	for _, g := range st.Groups {
		if g.Name != "squares" {
			continue
		}
		fmt.Printf("group %q: %d accurate / %d approximate (requested ratio %.0f%%, provided %.0f%%)\n",
			g.Name, g.Accurate, g.Approximate, 100*g.RequestedRatio, 100*g.ProvidedRatio)
	}
	rep := rt.Energy()
	fmt.Printf("modeled energy: %.3f mJ over %v\n", 1000*rep.Joules, rep.Wall.Round(1000))
}
