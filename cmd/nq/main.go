// Command nq computes the neighborhood quality NQ_k (Definition 3.1) on
// the built-in graph families and prints the Theorem 15/16 scaling tables.
//
// Usage:
//
//	nq [-n 1024] [-k 16,64,256,1024] [-family grid2d]
//
// Without -family it sweeps paths, cycles and 2-/3-d grids (the
// Appendix B families) and reports measured NQ_k against the predicted
// Θ(k^{1/(d+1)}).
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/nq"
	"repro/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nq:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := cliutil.NewFlagSet(w, "nq",
		"Compute the neighborhood quality NQ_k (Definition 3.1) and the Theorem 15/16 scaling tables.",
		"nq -n 1024 -k 16,64,256,1024       # the Appendix B family sweep",
		"nq -family grid2d -n 4096          # one family, measured NQ_k per k",
	)
	n := fs.Int("n", 1024, "approximate number of nodes")
	ks := fs.String("k", "16,64,256,1024", "comma-separated workloads k")
	family := fs.String("family", "", "single family (default: Theorem 15/16 sweep)")
	workers := fs.Int("workers", 0, "worker budget for the parallel graph kernels (0 = GOMAXPROCS); output is byte-identical at any setting")
	if err := fs.Parse(args); err != nil {
		if cliutil.HelpRequested(err) {
			return nil
		}
		return err
	}

	graph.SetMaxKernelWorkers(*workers)
	kList, err := parseInts(*ks)
	if err != nil {
		return err
	}
	if *family == "" {
		rows, err := runner.Collect(runner.Parallel(), experiments.NQScalingScenario(nil, *n, kList))
		if err != nil {
			return err
		}
		t := experiments.NQScalingData(rows)
		fmt.Fprintln(w, "# NQ_k scaling (Theorems 15/16): NQ_k = Θ(k^{1/(d+1)}) on d-dimensional grids")
		fmt.Fprint(w, runner.Markdown(t.Header, t.Rows))
		return nil
	}
	g, err := graph.Build(graph.Family(*family), *n, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s: n=%d m=%d D=%d\n", *family, g.N(), g.M(), g.Diameter())
	for _, k := range kList {
		q, err := nq.Of(g, k)
		if err != nil {
			return err
		}
		witness, qv, err := nq.Witness(g, k)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "NQ_%-6d = %4d   (witness node %d with NQ_k(v)=%d)\n", k, q, witness, qv)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
