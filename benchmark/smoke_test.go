package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary as
// http_closed's bare HTTP child, and runs the tests from the repository
// root, where the benchmark itself runs.
func TestMain(m *testing.M) {
	if addr := os.Getenv(bareEnv); addr != "" {
		fmt.Fprintln(os.Stderr, serveBare(addr))
		os.Exit(1)
	}
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	stopAllChildren()
	os.Exit(code)
}

func needGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH to build cmd/sigserve with")
	}
	if err := checkPlatform(); err != nil {
		t.Skip(err)
	}
}

// TestQuickSmoke drives every workload for one second with every check on.
// No number is gated: this catches the benchmark rotting, not the program
// slowing.
func TestQuickSmoke(t *testing.T) {
	needGo(t)
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			if raceEnabled && w.name == "serve_open" {
				t.Skip("the open loop cannot hold its schedule under the race detector")
			}
			res, err := runWorkload(w, quickOptions(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Errorf("check failed: %s", p)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			for _, d := range endToEnd {
				if v, ok := res.e2e[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v (present %v), want a positive number", d.name, v, ok)
				}
			}
		})
	}
}

// TestTracedSmoke runs the traced ladder once, short, and wants every
// per-layer metric measured.
func TestTracedSmoke(t *testing.T) {
	needGo(t)
	if raceEnabled {
		t.Skip("the traced ladder includes serve_open, which cannot hold its schedule under the race detector")
	}
	opt := quickOptions(1)
	// paper_apps needs a few suite passes (~0.4 s each) to have traced and
	// untraced ones to compare; the named workload gets two fifths.
	opt.window = 5 * time.Second
	res, err := runTraced("paper_apps", opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems {
		t.Errorf("check failed: %s", p)
	}
	for _, d := range perLayer() {
		if v, ok := res.layer[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present %v), want a number", d.name, v, ok)
		}
	}
	if res.layer["trace.spans"] == 0 {
		t.Error("the traced run recorded no spans")
	}
}
