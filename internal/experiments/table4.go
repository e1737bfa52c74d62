package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/sssp"
)

// Table4Row compares the Theorem 13 SSSP with the prior-work bounds of
// Table 4 on one (family, n, ε) instance.
type Table4Row struct {
	Family string
	N      int
	Eps    float64
	// Measured Theorem 13: eÕ(1/ε²), n-independent up to polylog.
	Thm13Rounds int
	// Prior work.
	AG21Rounds   float64 // deterministic eÕ(√n), stretch log/loglog
	CHLP21Rounds float64 // randomized eÕ(n^{5/17}), stretch 1+ε
	AHKRounds    float64 // randomized eÕ(n^ε), large constant stretch
	LocalFlood   int64
}

// Table4Scenario declares the Table 4 sweep: per (family, ε) cell it
// runs the Theorem 13 (1+ε)-SSSP from node 0.
func Table4Scenario(families []graph.Family, n int, epss []float64, seed int64) *runner.Scenario[Table4Row] {
	return &runner.Scenario[Table4Row]{
		Name:     "table4",
		Families: families,
		Ns:       []int{n},
		Seeds:    []int64{seed},
		Points:   runner.PointsEps(epss),
		Run: func(c *runner.Cell) ([]Table4Row, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			eps := c.Point.Eps
			net, err := c.NewNet(g, c.Rng().Int63())
			if err != nil {
				return nil, err
			}
			if _, err := sssp.Approx(net, 0, eps); err != nil {
				return nil, fmt.Errorf("table4 %s eps=%v: %w", c.Family, eps, err)
			}
			p := params(net, 1, 1, eps)
			return []Table4Row{{
				Family:       string(c.Family),
				N:            g.N(),
				Eps:          eps,
				Thm13Rounds:  net.Rounds(),
				AG21Rounds:   baseline.AG21SSSP().Rounds(p),
				CHLP21Rounds: baseline.CHLP21SSSP().Rounds(p),
				AHKRounds:    baseline.AHKSSSP().Rounds(p),
				LocalFlood:   p.Diam,
			}}, nil
		},
		RenderRow: func(c *runner.Cell, r Table4Row) runner.RenderedRow {
			return runner.RenderedRow{Table: "table4", Keys: table4Keys, Values: table4Values(r)}
		},
	}
}

// table4Keys and table4Values are shared between the finished table
// rendering and the per-cell stream rendering (Scenario.RenderRow), so
// streamed rows match the document byte for byte.
var table4Keys = []string{"family", "n", "eps", "thm13_rounds",
	"ag21_rounds", "chlp21_rounds", "ahk_rounds", "local_d"}

func table4Values(r Table4Row) []string {
	return []string{
		r.Family,
		fmt.Sprintf("%d", r.N),
		fmt.Sprintf("%.2f", r.Eps),
		fmt.Sprintf("%d", r.Thm13Rounds),
		f1(r.AG21Rounds),
		f1(r.CHLP21Rounds),
		f1(r.AHKRounds),
		fmt.Sprintf("%d", r.LocalFlood),
	}
}

// Table4Data renders rows into the sink-neutral table form.
func Table4Data(rows []Table4Row) *runner.Table {
	t := &runner.Table{
		Name:  "table4",
		Title: "Table 4 — SSSP (Theorem 13)",
		Header: []string{"family", "n", "ε",
			"Thm13 eÕ(1/ε²)", "AG21 eÕ(√n)", "CHLP21 eÕ(n^{5/17})", "AHK+20 eÕ(n^ε)", "LOCAL D"},
		Keys: table4Keys,
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, table4Values(r))
	}
	return t
}
