package experiments

import (
	"io"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/runner"
)

// markdown renders a table the way the markdown sink does, note
// included, so the row assertions read what a report would show.
func markdown(t *testing.T, tbl *runner.Table) string {
	t.Helper()
	var b strings.Builder
	if err := runner.WriteTable(&runner.MarkdownSink{W: &b}, tbl); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTable1SmallRun(t *testing.T) {
	rows, err := runner.Collect(runner.Parallel(), Table1Scenario([]graph.Family{graph.FamilyPath, graph.FamilyGrid2D}, 144, []int{64, 144}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.DisseminationRounds <= 0 || r.AggregationRounds <= 0 || r.RoutingRounds <= 0 {
			t.Fatalf("non-positive measured rounds: %+v", r)
		}
		if r.NQ < 1 {
			t.Fatalf("NQ missing: %+v", r)
		}
		// Measured universal rounds must respect the Theorem 4 bound.
		if float64(r.DisseminationRounds) < r.LowerBound {
			t.Fatalf("measured %d below lower bound %.1f", r.DisseminationRounds, r.LowerBound)
		}
	}
	// Shape check: on the grid the universal algorithm must beat the
	// AHK+20 √k baseline for k=n (NQ_n ≈ n^{1/3} ≪ √n there)… at these
	// small sizes polylog constants dominate, so just require the
	// formatted table to render.
	txt := markdown(t, Table1Data(rows))
	if !strings.Contains(txt, "path") || !strings.Contains(txt, "grid2d") {
		t.Fatalf("format:\n%s", txt)
	}
}

func TestTable2SmallRun(t *testing.T) {
	rows, err := runner.Collect(runner.Parallel(), Table2Scenario([]graph.Family{graph.FamilyPath}, 100, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows=%d", len(rows))
	}
	r := rows[0]
	for name, v := range map[string]int{
		"unweighted": r.UnweightedRounds,
		"sparse":     r.SparseExactRounds,
		"spanner":    r.SpannerRounds,
		"skeleton":   r.SkeletonRounds,
		"cuts":       r.CutsRounds,
	} {
		if v <= 0 {
			t.Fatalf("%s rounds = %d", name, v)
		}
	}
	if !strings.Contains(markdown(t, Table2Data(rows)), "path") {
		t.Fatal("format failed")
	}
}

func TestTable3SmallRun(t *testing.T) {
	rows, err := runner.Collect(runner.Parallel(), Table3Scenario([]graph.Family{graph.FamilyPath}, 120, []int{32}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows=%d", len(rows))
	}
	if rows[0].Rounds <= 0 || rows[0].Stretch < 1 {
		t.Fatalf("bad row %+v", rows[0])
	}
	if !strings.Contains(markdown(t, Table3Data(rows)), "path") {
		t.Fatal("format failed")
	}
}

func TestTable4SmallRun(t *testing.T) {
	rows, err := runner.Collect(runner.Parallel(), Table4Scenario([]graph.Family{graph.FamilyGrid2D}, 100, []float64{0.5, 0.25}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	// Theorem 13 cost grows with 1/ε² but not with anything else.
	if rows[1].Thm13Rounds <= rows[0].Thm13Rounds {
		t.Fatalf("eps=0.25 (%d) not costlier than eps=0.5 (%d)", rows[1].Thm13Rounds, rows[0].Thm13Rounds)
	}
	if !strings.Contains(markdown(t, Table4Data(rows)), "grid2d") {
		t.Fatal("format failed")
	}
}

func TestFigure1SmallRun(t *testing.T) {
	pts, err := runner.Collect(runner.Parallel(), Figure1Scenario([]graph.Family{graph.FamilyPath}, 200, []float64{0, 0.5, 1}, 0.5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points=%d", len(pts))
	}
	for _, p := range pts {
		if p.Rounds <= 0 {
			t.Fatalf("no rounds at beta=%v", p.Beta)
		}
	}
	txt := markdown(t, Figure1Data(graph.FamilyPath, pts))
	if !strings.Contains(txt, "regime") || !strings.Contains(txt, "*") {
		t.Fatalf("figure format:\n%s", txt)
	}
}

func TestNQScalingRun(t *testing.T) {
	rows, err := runner.Collect(runner.Parallel(), NQScalingScenario(nil, 256, []int{16, 64, 256}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 4 families × 3 k
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		// Theorem 15/16: NQ_k within a small constant of the prediction.
		if r.Ratio < 0.2 || r.Ratio > 5 {
			t.Fatalf("%s k=%d: NQ=%d vs predicted %.1f (ratio %.2f)", r.Family, r.K, r.NQ, r.Predicted, r.Ratio)
		}
	}
	if !strings.Contains(markdown(t, NQScalingData(rows)), "grid3d") {
		t.Fatal("format failed")
	}
}

func TestDefaultFamilies(t *testing.T) {
	fams := DefaultFamilies()
	if len(fams) < 4 {
		t.Fatal("too few default families")
	}
	for _, f := range fams {
		if _, err := graph.Build(f, 64, nil); err != nil {
			t.Fatalf("family %s unbuildable: %v", f, err)
		}
	}
}

// TestFormatsSingleSourceOfTruth: every format Formats lists must have
// a content type and a working sink, and NewSink must reject anything
// else — the server's HTTP whitelist derives from the same table, so
// the two cannot drift.
func TestFormatsSingleSourceOfTruth(t *testing.T) {
	for _, format := range Formats() {
		if ct, ok := FormatContentType(format); !ok || ct == "" {
			t.Errorf("format %q has no content type", format)
		}
		if sink, err := (&ReportConfig{Format: format}).NewSink(io.Discard); err != nil || sink == nil {
			t.Errorf("format %q has no sink: %v", format, err)
		}
	}
	if ct, ok := FormatContentType(""); !ok || ct != "text/markdown; charset=utf-8" {
		t.Errorf("empty format should default to markdown, got %q ok=%v", ct, ok)
	}
	if _, ok := FormatContentType("xml"); ok {
		t.Error("unknown format accepted by FormatContentType")
	}
	if _, err := (&ReportConfig{Format: "xml"}).NewSink(io.Discard); err == nil {
		t.Error("unknown format accepted by NewSink")
	}
}
