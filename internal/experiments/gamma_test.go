package experiments

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/runner"
)

func TestGammaScalingMonotone(t *testing.T) {
	rows, err := runner.Collect(runner.Parallel(), GammaScalingScenario(graph.FamilyPath, 576, 48, []int{1, 4, 16}, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Theorem 14: more capacity never costs more rounds.
	for i := 1; i < len(rows); i++ {
		if rows[i].Rounds > rows[i-1].Rounds {
			t.Fatalf("rounds increased with γ: %+v", rows)
		}
	}
	// At the largest γ, k ≤ γ: the parallel regime.
	if !strings.Contains(rows[len(rows)-1].Regime, "parallel") {
		t.Fatalf("final regime %q, want parallel", rows[len(rows)-1].Regime)
	}
	if !strings.Contains(markdown(t, GammaScalingData(rows)), "parallel") {
		t.Fatal("format failed")
	}
}
