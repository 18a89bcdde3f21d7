package sig_test

import (
	"fmt"

	"repro/sig"
)

// ExampleRuntime_Submit is the programming model end to end: a group of
// tasks, each with a significance, an approximate body and declared costs,
// and a taskwait whose ratio asks for 60% of them to run accurately. The
// inputs that contribute most to the sum are the most significant.
func ExampleRuntime_Submit() {
	rt, err := sig.New(sig.Config{Workers: 1, Policy: sig.PolicyGTBMaxBuffer})
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	const n = 10
	squares := make([]float64, n)
	exact := make([]bool, n)
	grp := rt.Group("squares", 0.6) // tpc_init_group: 60% of tasks accurate
	for i := range n {
		x := float64(i)
		rt.Submit(
			func() { squares[i], exact[i] = x*x, true },
			sig.WithLabel(grp),
			sig.WithSignificance(0.1+0.8*x/(n-1)),           // significant(...)
			sig.WithApprox(func() { squares[i] = 2*x - 1 }), // approxfun(...): a linear estimate
			sig.WithCost(100, 10),
		)
	}
	provided := rt.Wait(grp) // taskwait label(squares) ratio(0.6)

	var sum float64
	for i, v := range squares {
		fmt.Printf("%d: %4.0f accurate=%v\n", i, v, exact[i])
		sum += v
	}
	rep := rt.Energy()
	fmt.Printf("sum %.0f (exact %d), provided ratio %.2f, %.2f µJ over %v busy\n",
		sum, (n-1)*n*(2*n-1)/6, provided, 1e6*rep.Joules, rep.Busy)
	// Output:
	// 0:   -1 accurate=false
	// 1:    1 accurate=false
	// 2:    3 accurate=false
	// 3:    5 accurate=false
	// 4:   16 accurate=true
	// 5:   25 accurate=true
	// 6:   36 accurate=true
	// 7:   49 accurate=true
	// 8:   64 accurate=true
	// 9:   81 accurate=true
	// sum 279 (exact 285), provided ratio 0.60, 7.68 µJ over 640ns busy
}
