package pragma

import (
	"fmt"
	"strings"
	"testing"
)

// listing1 is the paper's Listing 1 sobel kernel in the directive dialect;
// ExampleTransformFile pins what it lowers to.
const listing1 = `package main

// sobel filters img into res, one task per output row.
func sobel(rt *sig.Runtime, img, res []byte, height int) {
	for i := 1; i < height-1; i++ {
		//sig:task label(sobel) in(img) out(res) significant(float64(i%9+1) / 10) approxfun(sblTaskAppr)
		sblTask(res, img, i)
	}
	//sig:taskwait label(sobel) ratio(0.35)
}
`

// ExampleTransformFile lowers Listing 1: the task directive becomes
// rt.Submit with the clauses mapped to functional options, the taskwait
// becomes rt.Wait, and the taskwait's ratio clause is propagated backward
// onto the group handle of the submissions. The data clauses lower to
// nothing.
func ExampleTransformFile() {
	out, err := TransformFile("listing1.go", []byte(listing1), Options{Runtime: "rt"})
	if err != nil {
		panic(err)
	}
	fmt.Print(string(out))
	// Output:
	// package main
	//
	// import "repro/sig"
	//
	// // sobel filters img into res, one task per output row.
	// func sobel(rt *sig.Runtime, img, res []byte, height int) {
	// 	for i := 1; i < height-1; i++ {
	// 		rt.Submit(func() { sblTask(res, img, i) },
	// 			sig.WithLabel(rt.Group("sobel", 0.35)),
	// 			sig.WithSignificance(float64(i%9+1)/10),
	// 			sig.WithApprox(func() { sblTaskAppr(res, img, i) }))
	// 	}
	// 	rt.Wait(rt.Group("sobel", 0.35))
	// }
}

// TestTransformListing1Golden lowers Listing 1 with its in/out clauses
// swapped for inout or dropped: both are the Submit ExampleTransformFile
// pins for the clauses as the paper writes them.
func TestTransformListing1Golden(t *testing.T) {
	want, err := TransformFile("listing1.go", []byte(listing1), Options{Runtime: "rt"})
	if err != nil {
		t.Fatal(err)
	}
	for _, clauses := range []string{"inout(img) ", ""} {
		src := strings.Replace(listing1, "in(img) out(res) ", clauses, 1)
		out, err := TransformFile("listing1.go", []byte(src), Options{Runtime: "rt"})
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(want) {
			t.Errorf("data clauses %q: translator output diverges from Listing 1's.\n--- got ---\n%s\n--- want ---\n%s",
				clauses, out, want)
		}
	}
}

func TestTransformCustomRuntimeVar(t *testing.T) {
	out, err := TransformFile("listing1.go", []byte(listing1), Options{Runtime: "runtime"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `runtime.Submit(`) ||
		!strings.Contains(string(out), `runtime.Wait(runtime.Group("sobel", 0.35))`) {
		t.Errorf("custom runtime variable not honored:\n%s", out)
	}
}

func TestTransformNoDirectivesPassesThrough(t *testing.T) {
	src := "package x\n\nfunc f() int { return 1 }\n"
	out, err := TransformFile("x.go", []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "func f() int") {
		t.Errorf("directive-free file mangled:\n%s", out)
	}
	if strings.Contains(string(out), "repro/sig") {
		t.Errorf("sig import added to a file with no directives:\n%s", out)
	}
}

func TestTransformTaskwaitWithoutLabel(t *testing.T) {
	src := `package x

func f(rt *sig.Runtime) {
	//sig:task significant(0.5)
	work()
	//sig:taskwait
}
`
	out, err := TransformFile("x.go", []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "rt.WaitAll()") {
		t.Errorf("label-free taskwait should lower to WaitAll:\n%s", out)
	}
}

func TestTransformUnlabeledTaskwaitWithRatio(t *testing.T) {
	src := `package x

func f(rt *sig.Runtime) {
	//sig:task significant(0.5)
	work()
	//sig:taskwait ratio(0.35)
}
`
	out, err := TransformFile("x.go", []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The ratio must reach both the submission and the wait via the
	// default ("") group, not be silently dropped.
	if !strings.Contains(string(out), `sig.WithLabel(rt.Group("", 0.35))`) ||
		!strings.Contains(string(out), `rt.Wait(rt.Group("", 0.35))`) {
		t.Errorf("unlabeled taskwait ratio not propagated:\n%s", out)
	}
}

func TestTransformDefaultRatio(t *testing.T) {
	src := `package x

func f(rt *sig.Runtime) {
	//sig:task label(g) significant(0.5)
	work()
	//sig:taskwait label(g)
}
`
	out, err := TransformFile("x.go", []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `rt.Group("g", 1.0)`) {
		t.Errorf("taskwait without ratio should default the group ratio to 1.0:\n%s", out)
	}
}

func TestTransformErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unbalanced-parens", "package x\n\nfunc f() {\n\t//sig:task label(g significant(0.5)\n\twork()\n}\n"},
		{"approxfun-non-call", "package x\n\nfunc f() {\n\t//sig:task approxfun(g)\n\tx := 1\n\t_ = x\n}\n"},
		{"dangling-task", "package x\n\nfunc f() {\n}\n\n//sig:task label(g)\n"},
		{"stacked-task-directives", "package x\n\nfunc f() {\n\t//sig:task label(a)\n\t//sig:task label(b)\n\twork()\n}\n"},
		{"nested-task-directive", "package x\n\nfunc f() {\n\t//sig:task label(outer)\n\tfor i := 0; i < 3; i++ {\n\t\t//sig:task label(inner) significant(0.5)\n\t\twork()\n\t}\n}\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := TransformFile("x.go", []byte(tc.src), Options{}); err == nil {
				t.Errorf("expected an error for %s", tc.name)
			}
		})
	}
}
