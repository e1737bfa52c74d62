// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per process and prints, as its last line, one JSON
// object with the correctness verdict and the metrics:
//
//	perfbench --workload report|nq-large|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run alternates untraced and traced passes and reports the
// per-layer ones, computed from in-memory spans written to
// .bench_build/trace/ when the run ends. README.md describes the
// workloads, the metric definitions and which layer should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	value   float64
	unit    string
	samples int
}

// outcome is one run's verdict and metrics.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

func (o *outcome) set(name string, value float64, unit string, samples int) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{value: value, unit: unit, samples: samples}
}

// endToEnd lists the --trace 0 metrics in print order.
var endToEnd = []string{
	"run_s", "cells_per_s", "sweeps_per_s", "sweep_p50_ms", "sweep_p95_ms",
	"cold_p50_ms", "warm_p50_ms", "first_cell_p50_ms", "setup_s", "peak_rss_mb",
}

// perLayer lists the --trace 1 metrics with their units. Every workload
// reports every name; a layer a workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"graph.build_s", "s"},
	{"graph.diameter_s", "s"},
	{"graph.profiles_s", "s"},
	{"graph.profile_dedups", "count"},
	{"nq.of_s", "s"},
	{"hybrid.simulate_s.table1", "s"},
	{"hybrid.simulate_s.table2", "s"},
	{"hybrid.simulate_s.table3", "s"},
	{"hybrid.simulate_s.table4", "s"},
	{"hybrid.simulate_s.figure1", "s"},
	{"hybrid.rounds_total", "count"},
	{"experiments.section_s.nq", "s"},
	{"experiments.section_s.table1", "s"},
	{"experiments.section_s.table2", "s"},
	{"experiments.section_s.table3", "s"},
	{"experiments.section_s.table4", "s"},
	{"experiments.section_s.figure1", "s"},
	{"experiments.section_s.nqscaling-large", "s"},
	{"runner.wait_s", "s"},
	{"runner.idle_s", "s"},
	{"runner.cell_max_ms", "ms"},
	{"runner.render_s.md", "s"},
	{"runner.render_s.csv", "s"},
	{"runner.render_s.jsonl", "s"},
	{"runner.pool_queued_max", "count"},
	{"runner.graph_builds", "count"},
	{"runner.profile_computes", "count"},
	{"hybridnet.server_ms.submit", "ms"},
	{"hybridnet.server_ms.status_wait", "ms"},
	{"hybridnet.server_ms.results", "ms"},
	{"hybridnet.server_ms.stream", "ms"},
	{"hybridnet.transport_ms.submit", "ms"},
	{"hybridnet.transport_ms.status_wait", "ms"},
	{"hybridnet.transport_ms.results", "ms"},
	{"hybridnet.transport_ms.stream", "ms"},
	{"hybridnet.stream_events", "count"},
	{"hybridnet.stream_dropped", "count"},
	{"artifact.results.hits", "count"},
	{"artifact.results.misses", "count"},
	{"artifact.results.puts", "count"},
	{"artifact.results.disk_hits", "count"},
	{"artifact.graphs.hits", "count"},
	{"artifact.graphs.misses", "count"},
	{"artifact.graphs.puts", "count"},
	{"artifact.graphs.disk_hits", "count"},
	{"artifact.profiles.hits", "count"},
	{"artifact.profiles.misses", "count"},
	{"artifact.profiles.puts", "count"},
	{"artifact.profiles.disk_hits", "count"},
	{"artifact.sweeps.hits", "count"},
	{"artifact.sweeps.misses", "count"},
	{"artifact.sweeps.puts", "count"},
	{"artifact.sweeps.disk_hits", "count"},
	{"artifact.results_hit_ratio", "ratio"},
	{"artifact.disk_bytes", "bytes"},
	{"artifact.compactions", "count"},
	{"admission.shed", "count"},
	{"runtime.cpu_util", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_s", "s"},
	{"trace.unaccounted_share", "ratio"},
	{"trace.spans", "count"},
}

// setupProbes is how many fresh processes the batch workloads start to
// measure set-up time.
const setupProbes = 15

func main() {
	workload := flag.String("workload", "", "report, nq-large or serve")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	probe := flag.Bool("probe", false, "exit once the workload's inputs are built (set-up probe)")
	flag.Parse()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if *seed == 0 {
		*seed = 1 // ReportConfig reads 0 as its default seed
	}
	if *probe {
		if _, err := newBatch(*workload, *seed, nproc); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	window := time.Duration(*seconds * float64(time.Second))
	traced := *trace == 1
	tracePath := fmt.Sprintf(".bench_build/trace/%s-seed%d.json", *workload, *seed)

	var out outcome
	var err error
	switch *workload {
	case "report", "nq-large":
		var b *batch
		if b, err = newBatch(*workload, *seed, nproc); err == nil {
			out, err = runBatch(b, window, traced, tracePath)
		}
	case "serve":
		out, err = runServe(serveConfig{seed: *seed, window: window, traced: traced, workers: nproc,
			clients: min(2, nproc), tracePath: tracePath})
	default:
		err = fmt.Errorf("unknown workload %q (want report, nq-large or serve)", *workload)
	}
	if err != nil {
		fatal(err)
	}
	emit(out, traced)
}

func newBatch(workload string, seed int64, workers int) (*batch, error) {
	switch workload {
	case "report":
		return newReport(seed, workers), nil
	case "nq-large":
		return newNQLarge(seed, workers), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// probeSetup measures the batch set-up time: the median over fresh
// processes of starting this program and building the workload's inputs
// — what a user of the report command pays before any sweep runs.
func probeSetup(workload string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "--probe", "--workload", workload, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// emit prints the metrics table and, last, the JSON result line.
func emit(o outcome, traced bool) {
	var names []string
	units := make(map[string]string)
	if traced {
		for _, m := range perLayer {
			names = append(names, m.name)
			units[m.name] = m.unit
		}
	} else {
		names = endToEnd
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jm, len(names))
	for _, name := range names {
		m, ok := o.metrics[name]
		if !ok {
			m = metric{unit: units[name]}
		}
		fmt.Printf("%-40s %16.6f %-6s samples=%d\n", name, m.value, m.unit, m.samples)
		metrics[name] = jm{Value: m.value, Unit: m.unit}
	}
	fail := 0.0
	if o.attempted > 0 {
		fail = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("fail_ratio %.6f (%d of %d operations failed or mismatched)\n", fail, o.failed, o.attempted)
	blob, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, max(o.attempted, 1), o.failed, metrics})
	fmt.Println(string(blob))
}
