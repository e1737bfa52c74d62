package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/sssp"
	"repro/internal/unicast"
)

// GammaRow is one point of the HYBRID(∞, γ) capacity sweep: Theorem 14
// predicts k-SSP cost eÕ(√(k/γ)/ε²), collapsing to eÕ(1/ε²) at k ≤ γ —
// "the global capacity γ does not only simply scale the running time"
// (Section 2.3).
type GammaRow struct {
	CapFactor int
	Gamma     int
	K         int
	Rounds    int
	Regime    string
	Stretch   float64
}

// GammaScalingScenario declares the capacity sweep for a fixed k-SSP
// instance on the family: every cell measures the same graph and the
// same source set (both derived independently of the capacity point),
// varying only γ.
func GammaScalingScenario(fam graph.Family, n, k int, capFactors []int, eps float64, seed int64) *runner.Scenario[GammaRow] {
	return &runner.Scenario[GammaRow]{
		Name:     "gamma",
		Families: []graph.Family{fam},
		Ns:       []int{n},
		Seeds:    []int64{seed},
		Points:   runner.PointsCap(capFactors),
		Run: func(c *runner.Cell) ([]GammaRow, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			// The workload rng is point-independent so every capacity
			// point routes the identical source set.
			wrng := rand.New(rand.NewSource(c.DeriveSeed("sources")))
			sources := unicast.SampleNodes(g.N(), float64(k)/float64(g.N()), wrng)
			net, err := c.NewNet(g, c.DeriveSeed("net"))
			if err != nil {
				return nil, err
			}
			_, res, err := sssp.KSSP(net, sources, eps, true, wrng)
			if err != nil {
				return nil, fmt.Errorf("gamma scaling cf=%d: %w", c.Point.CapFactor, err)
			}
			return []GammaRow{{
				CapFactor: c.Point.CapFactor,
				Gamma:     net.Cap(),
				K:         k,
				Rounds:    res.Rounds,
				Regime:    res.Regime.String(),
				Stretch:   res.Stretch,
			}}, nil
		},
	}
}

// GammaScalingData renders rows into the sink-neutral table form.
func GammaScalingData(rows []GammaRow) *runner.Table {
	t := &runner.Table{
		Name:   "gamma",
		Title:  "HYBRID(∞, γ) capacity sweep (Theorem 14)",
		Header: []string{"γ factor", "γ", "k", "Thm14 rounds", "regime", "stretch"},
		Keys:   []string{"cap_factor", "gamma", "k", "rounds", "regime", "stretch"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d×", r.CapFactor),
			fmt.Sprintf("%d", r.Gamma),
			fmt.Sprintf("%d", r.K),
			fmt.Sprintf("%d", r.Rounds),
			r.Regime,
			fmt.Sprintf("%.2f", r.Stretch),
		})
	}
	return t
}
