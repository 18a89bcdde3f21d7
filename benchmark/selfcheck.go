package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// selfcheckRuns is the number of runs per set and workload: what the driver
// makes, and what the ten-pair rule for judging a change assumes.
const selfcheckRuns = 10

// contract is the part of BENCHMARK.json the self-check reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (contract, error) {
	var c contract
	raw, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(raw, &c)
}

// selfCheck measures whether the benchmark agrees with itself: two sets of
// runs of the same code, each run a fresh process with its own seed, exactly
// as the driver invokes it. For every (workload, end-to-end metric) it prints
// both sets' median and quartiles, each set's spread (interquartile distance
// over the median) and how much worse the second median is than the first,
// against the metric's bound, and fails if judge fails any of them or a run
// did.
func selfCheck() int {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck runs from the repository root:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	dir := filepath.Join(buildDir, "selfcheck")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	badRuns := 0
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range c.Workloads {
			values[set][w.Name] = map[string][]float64{}
			for i := 0; i < selfcheckRuns; i++ {
				seed := set*selfcheckRuns + i + 1
				cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.Itoa(c.RunSeconds), "-trace", "0")
				cmd.Stderr = os.Stderr
				out, runErr := cmd.Output()
				// Every run's output is kept, so a table can be rebuilt and
				// a bad run examined.
				file := filepath.Join(dir, fmt.Sprintf("set%d-%s-seed%d.txt", set+1, w.Name, seed))
				if err := os.WriteFile(file, out, 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 2
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var rep report
				if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || runErr != nil {
					fmt.Fprintf(os.Stderr, "benchmark: set %d, %s, seed %d failed (%v, %v); see %s\n", set+1, w.Name, seed, runErr, err, file)
					badRuns++
					continue
				}
				for name, m := range rep.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %-14s seed %-3d ok (%d ops)\n", set+1, w.Name, seed, rep.Attempted)
			}
		}
	}

	fmt.Printf("%-14s %-15s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %6s  %s\n",
		"workload", "metric", "A.q1", "A.median", "A.q3", "A.iqr", "B.q1", "B.median", "B.q3", "B.iqr", "B-worse", "bound", "")
	code := 0
	if badRuns > 0 {
		fmt.Printf("%d runs failed and are missing from the table\n", badRuns)
		code = 1
	}
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			worse, verdict, ok := judge(m, a, b)
			if !ok {
				code = 1
			}
			fmt.Printf("%-14s %-15s %12.6g %12.6g %12.6g %6.2f%% | %12.6g %12.6g %12.6g %6.2f%% | %+6.2f%% %5.1f%%  %s\n",
				w.Name, m.Name, aq1, amed, aq3, 100*spread(a), bq1, bmed, bq3, 100*spread(b), 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}

// judge holds two sets of one metric's values against its bound: how much
// worse set b's median is than set a's, and whether the pair passes. It
// fails, as the driver's acceptance check does, if the set-to-set difference
// or a spread other than setup_s's exceeds the bound — setup_s is the one
// CPU-bound quantity that has to stay in raw seconds, so the driver gates only
// its median. Its spread is still held to the builder's target of a third of
// the bound, like every other. The comparisons are written so that a NaN — a
// set with fewer than two good runs — fails.
func judge(m contractMetric, a, b []float64) (worse float64, verdict string, ok bool) {
	_, amed, _ := quartiles(a)
	_, bmed, _ := quartiles(b)
	worse = (bmed - amed) / amed
	if m.Better == "higher" {
		worse = -worse
	}
	widest := max(spread(a), spread(b))
	switch {
	case !(worse <= m.Bound) || !(widest <= m.Bound || m.Name == "setup_s"):
		return worse, "EXCEEDS BOUND", false
	case !(widest <= m.Bound/3):
		return worse, "ok (spread above a third of the bound)", true
	}
	return worse, "ok", true
}
