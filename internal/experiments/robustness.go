package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/async"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/runner"
	"repro/internal/sssp"
)

// RobustnessRow is one point of the robustness axis the round-
// synchronous analysis doesn't touch (DESIGN.md §13): an algorithm run
// on the asynchronous fault-injecting backend, reporting solution
// quality (whether the converged output still matches the oracle) and
// convergence time against the fault profile.
type RobustnessRow struct {
	Family  string
	N       int
	Profile string // fault profile label (none, loss=…, churn=…)
	Algo    string // bfs | approx | disseminate
	Exact   bool   // converged output matches the fault-free oracle
	// Ticks is the logical-clock convergence time.
	Ticks int64
	// Delivered/Transmissions/Dropped/Retries are transport totals;
	// Restarts counts churn recoveries.
	Delivered, Transmissions, Dropped, Retries int64
	Restarts                                   int
}

// robustnessProfiles is the fault grid of the sweep, in display order.
// Labels double as the runner.Point labels feeding per-cell seeds.
var robustnessProfiles = []struct {
	label string
	f     async.Faults
}{
	{"fault=none", async.Faults{}},
	{"loss=0.05", async.LossProfile(0.05)},
	{"loss=0.20", async.LossProfile(0.20)},
	{"burst=0.10", async.BurstLossProfile(0.10, 0.50, 0.90)},
	{"churn=0.25", async.ChurnProfile(0.25)},
}

func robustnessFaults(label string) (async.Faults, error) {
	for _, p := range robustnessProfiles {
		if p.label == label {
			return p.f, nil
		}
	}
	return async.Faults{}, fmt.Errorf("robustness: unknown fault profile %q", label)
}

// robustnessPoints maps the fault grid to labeled sweep points.
func robustnessPoints() []runner.Point {
	pts := make([]runner.Point, len(robustnessProfiles))
	for i, p := range robustnessProfiles {
		pts[i] = runner.Point{Label: p.label}
	}
	return pts
}

// RobustnessScenario declares the robustness sweep: every fault profile
// on every family, measuring each async workload's quality and
// convergence time. An empty family list selects the full default set.
func RobustnessScenario(families []graph.Family, n int, seed int64) *runner.Scenario[RobustnessRow] {
	if len(families) == 0 {
		families = graph.Families()
	}
	return &runner.Scenario[RobustnessRow]{
		Name:     "robustness",
		Families: families,
		Ns:       []int{n},
		Seeds:    []int64{seed},
		Points:   robustnessPoints(),
		Run: func(c *runner.Cell) ([]RobustnessRow, error) {
			g, err := c.BuildGraph()
			if err != nil {
				return nil, err
			}
			faults, err := robustnessFaults(c.Point.Label)
			if err != nil {
				return nil, err
			}
			return robustnessRows(c, g, faults)
		},
		RenderRow: func(c *runner.Cell, r RobustnessRow) runner.RenderedRow {
			return runner.RenderedRow{Table: "robustness", Keys: robustnessKeys, Values: robustnessValues(r)}
		},
	}
}

// robustnessRows runs the three async workloads on one cell. Exact
// compares each converged output against the fault-free oracle — under
// the backend's reliable-transport semantics it should hold at every
// profile, which is itself the measurement: quality degrades to longer
// convergence, not to wrong answers.
func robustnessRows(c *runner.Cell, g *graph.Graph, faults async.Faults) ([]RobustnessRow, error) {
	opt := async.Options{Seed: c.Seed(), Faults: faults}
	src := int(c.DeriveSeed("src")) % g.N()
	row := func(algo string, exact bool, rep *async.Report) RobustnessRow {
		return RobustnessRow{
			Family:        string(c.Family),
			N:             g.N(),
			Profile:       c.Point.Label,
			Algo:          algo,
			Exact:         exact,
			Ticks:         rep.ConvergedAt,
			Delivered:     rep.Delivered,
			Transmissions: rep.Transmissions,
			Dropped:       rep.DroppedAttempts,
			Retries:       rep.Retries,
			Restarts:      rep.Restarts,
		}
	}

	hops, rep, err := async.BFS(g, src, opt)
	if err != nil {
		return nil, fmt.Errorf("robustness %s/%s: bfs: %w", c.Family, c.Point.Label, err)
	}
	rows := []RobustnessRow{row("bfs", distsEqual(hops, oracle.BFS(g, src)), rep)}

	// Weights, source and token placement derive from point-independent
	// streams, so every fault profile measures the same instance.
	const eps = 0.25
	wg := graph.RandomWeights(g, 30, rand.New(rand.NewSource(c.DeriveSeed("weights"))))
	est, rep, err := async.Approx(wg, src, eps, opt)
	if err != nil {
		return nil, fmt.Errorf("robustness %s/%s: approx: %w", c.Family, c.Point.Label, err)
	}
	want := oracle.Dijkstra(wg, src)
	quantOK := true
	for v, d := range want {
		if est[v] != sssp.QuantizeUp(d, eps) {
			quantOK = false
			break
		}
	}
	rows = append(rows, row("approx", quantOK, rep))

	tokensAt := make([]int, g.N())
	k := 8
	trng := rand.New(rand.NewSource(c.DeriveSeed("tokens")))
	for i := 0; i < k; i++ {
		tokensAt[trng.Intn(g.N())]++
	}
	sets, rep, err := async.Disseminate(g, tokensAt, opt)
	if err != nil {
		return nil, fmt.Errorf("robustness %s/%s: disseminate: %w", c.Family, c.Point.Label, err)
	}
	full := true
	for _, s := range sets {
		if s.Count() != k {
			full = false
			break
		}
	}
	rows = append(rows, row("disseminate", full, rep))
	return rows, nil
}

func distsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RobustnessData renders rows into the sink-neutral table form.
func RobustnessData(rows []RobustnessRow) *runner.Table {
	t := &runner.Table{
		Name:   "robustness",
		Title:  "Robustness — async backend under faults (DESIGN.md §13)",
		Header: []string{"family", "n", "profile", "algo", "exact", "ticks", "delivered", "transmissions", "dropped", "retries", "restarts"},
		Keys:   robustnessKeys,
		Note: "Solution quality and logical-clock convergence time of the asynchronous " +
			"backend under fault injection. The transport retries through loss and churn, " +
			"so exact should hold everywhere; the cost of faults shows up in ticks, " +
			"retries and restarts.",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, robustnessValues(r))
	}
	return t
}

// robustnessKeys and robustnessValues are shared between the finished
// table rendering and the per-cell stream rendering (Scenario.RenderRow)
// so streamed rows match the document byte for byte (DESIGN.md §12).
var robustnessKeys = []string{"family", "n", "profile", "algo", "exact", "ticks", "delivered", "transmissions", "dropped", "retries", "restarts"}

func robustnessValues(r RobustnessRow) []string {
	return []string{
		r.Family,
		fmt.Sprintf("%d", r.N),
		r.Profile,
		r.Algo,
		fmt.Sprintf("%t", r.Exact),
		fmt.Sprintf("%d", r.Ticks),
		fmt.Sprintf("%d", r.Delivered),
		fmt.Sprintf("%d", r.Transmissions),
		fmt.Sprintf("%d", r.Dropped),
		fmt.Sprintf("%d", r.Retries),
		fmt.Sprintf("%d", r.Restarts),
	}
}
