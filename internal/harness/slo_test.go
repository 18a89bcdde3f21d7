package harness

import "testing"

// TestSLOStudyHoldsContracts gates the SLO study's three claims: every
// measured reaction sits within its derived bound, the windowed quality floor
// holds its mean while per-wave quality still dips, and the priority lane's
// tail latency beats bulk's. Its replay and printed lines are
// TestStudyGoldens/slo's, which byte-compares the study.
func TestSLOStudyHoldsContracts(t *testing.T) {
	res, err := SLOStudy()
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllWithinBound {
		t.Errorf("reaction section out of bound: %+v", res.Reaction)
	}
	for _, row := range res.Reaction {
		if row.ShedWaves < 1 || row.ShedWaves > row.ShedBound {
			t.Errorf("overload %.0fx: shed in %d waves, bound %d", row.Overload, row.ShedWaves, row.ShedBound)
		}
		if row.RecoverWaves < 1 || row.RecoverWaves > row.RecoverBound {
			t.Errorf("overload %.0fx: recovered in %d waves, bound %d", row.Overload, row.RecoverWaves, row.RecoverBound)
		}
	}
	if res.MinWindowMean < sloFloor-0.05 {
		t.Errorf("min window mean %.3f below floor %.2f", res.MinWindowMean, sloFloor)
	}
	if res.FloorDips == 0 {
		t.Errorf("no wave dipped below the floor: the window floor is acting per-wave")
	}
	if res.PrioP99 > res.BulkP99 {
		t.Errorf("premium p99 %d waves above bulk p99 %d: the priority lane is not bypassing the backlog",
			res.PrioP99, res.BulkP99)
	}
	if res.PremiumCompleted == 0 {
		t.Errorf("no premium request completed")
	}
}
