// Package experiments is the benchmark harness that regenerates every
// table and figure of the paper's results section on concrete graph
// families:
//
//   - Table 1  — information dissemination (Theorems 1–4 vs [AHK+20]/[KS20]),
//   - Table 2  — APSP (Theorems 6–9, Corollary 2.2 vs eΘ(√n) prior work),
//   - Table 3  — (k,ℓ)-SP (Theorem 5 vs eΩ(√k)),
//   - Table 4  — SSSP (Theorem 13 vs eÕ(√n), eÕ(n^{5/17}), eÕ(n^ε)),
//   - Figure 1 — the k-SSP complexity landscape (Theorem 14),
//   - the Theorem 15/16/17 NQ_k-scaling analyses.
//
// Every row pairs the measured round count of a universal algorithm run
// in the simulator with the evaluated prior-work formulas and the
// Section 7 lower bounds on the same instance.
//
// Each artifact is declared as a runner.Scenario (TableNScenario,
// Figure1Scenario, …) — a family × n × seed × parameter grid plus a
// per-cell measurement — and swept concurrently by internal/runner with
// deterministic per-cell seeding, so the regenerated tables are
// byte-identical at any worker count. WriteReport drives the registered
// scenarios into a markdown, CSV, or JSONL sink.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/hybrid"
)

// DefaultFamilies are the graph families every table sweeps by default:
// all eleven built-in families, from the path (where NQ_k = Θ(√k) and
// universal ties existential) through grids and tori (polynomial
// separation), cliquey topologies (ring of cliques, lollipop), trees,
// and the small-diameter regime (hypercube, random, expander).
func DefaultFamilies() []graph.Family {
	return graph.Families()
}

func params(net *hybrid.Net, k, l int, eps float64) baseline.Params {
	return baseline.Params{
		N:     net.N(),
		K:     k,
		L:     l,
		Gamma: net.Cap(),
		PLog:  net.PLog(),
		Eps:   eps,
		Diam:  net.Graph().Diameter(),
	}
}

func f1(x float64) string {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.1f", x)
}

// sampleNodes returns every node independently with probability p, but
// never an empty set (it falls back to node 0).
func sampleNodes(n int, p float64, rng *rand.Rand) []int {
	var out []int
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}

func firstK(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}
