package harness

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/sig"
)

// Table1 renders the benchmark catalog (the paper's Table 1) to w. The
// output is deterministic and covered by a golden test.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: benchmark catalog")
	fmt.Fprintf(w, "%-13s %-25s %-45s %-38s %s\n",
		"Benchmark", "Domain", "Task decomposition", "Degradation", "Quality metric")
	for _, s := range specs() {
		fmt.Fprintf(w, "%-13s %-25s %-45s %-38s %s\n",
			s.Name, s.Domain, s.TaskDecomposition, s.Degradation, s.QualityMetric)
	}
}

// Table2 prints the policy-accuracy experiment: for every benchmark of the
// subset at the Medium degree, how precisely each significance-aware policy
// honored the requested ratio (prov%) and how often it inverted the
// significance order (inv%: ran a less significant task accurately at the
// expense of a more significant one).
func Table2(w io.Writer, opt Options) error {
	benches, err := subset(opt)
	if err != nil {
		return err
	}
	modes := []Mode{ModeGTB, ModeGTBMax, ModeLQH}
	fmt.Fprintln(w, "Table 2: requested vs provided accurate ratio and significance inversions (Medium)")
	fmt.Fprintf(w, "%-13s %6s", "benchmark", "req%")
	for _, m := range modes {
		fmt.Fprintf(w, " %9s-prov%% %9s-inv%%", m, m)
	}
	fmt.Fprintln(w)
	for _, spec := range benches {
		inst := spec.Make(opt.scale())
		ref := inst.Reference()
		fmt.Fprintf(w, "%-13s %6.1f", spec.Name, 100*spec.Ratios[Medium])
		for _, mode := range modes {
			m, err := Execute(spec, inst, ref, mode, Medium,
				RunOptions{Workers: opt.Workers, RecordDecisions: true})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %15.1f %14.1f", 100*m.ProvidedRatio, inversionPct(m.Decisions))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// inversionPct measures how far the accurate set strays from the
// significance oracle: with k accurate executions in a taskwait wave, the
// oracle spends all k slots on the wave's k most significant tasks; every
// accurate task strictly below that cutoff is an inversion. Waves are
// scored independently — iterative benchmarks reassign significance each
// wave, so cross-wave comparisons would be meaningless — in wave order, and
// aggregated over the total accurate count.
func inversionPct(recs []sig.DecisionRecord) float64 {
	recs = slices.Clone(recs)
	slices.SortFunc(recs, func(a, b sig.DecisionRecord) int { return cmp.Compare(a.Wave, b.Wave) })
	totalInv, totalK := 0, 0
	for len(recs) > 0 {
		n := 1
		for n < len(recs) && recs[n].Wave == recs[0].Wave {
			n++
		}
		wave := recs[:n]
		recs = recs[n:]
		k := 0
		for _, r := range wave {
			if r.Accurate {
				k++
			}
		}
		if k == 0 {
			continue
		}
		sigs := make([]float64, len(wave))
		for i, r := range wave {
			sigs[i] = r.Significance
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(sigs)))
		cutoff := sigs[k-1]
		for _, r := range wave {
			if r.Accurate && r.Significance < cutoff {
				totalInv++
			}
		}
		totalK += k
	}
	if totalK == 0 {
		return 0
	}
	return 100 * float64(totalInv) / float64(totalK)
}
