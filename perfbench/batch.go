package main

// The batch workloads, report and nq-large: each pass regenerates a
// document from scratch (fresh topology and profile caches) through
// experiments.Generate and the runner sinks, exactly as
// experiments.WriteReport does, and is checked byte for byte against a
// serial (Workers = 1) reference rendered before the timed window.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/runner"
)

// batchN is the instance size of both batch workloads.
const batchN = 1024

// warmRenders is how many times the finished document is re-rendered
// per pass for the warm latency sample.
const warmRenders = 16

type batch struct {
	name    string
	cfg     experiments.ReportConfig
	sweeps  []string // registry names, in document order
	workers int
}

func newReport(seed int64, workers int) *batch {
	return &batch{
		name:    "report",
		cfg:     experiments.ReportConfig{N: batchN, Seed: seed, Workers: workers, Format: "md"},
		sweeps:  []string{"nq", "table1", "table2", "table3", "table4", "figure1"},
		workers: workers,
	}
}

// newNQLarge builds the nq-large workload. The NQ families are
// deterministic lattices and the scenario has no seed axis, so every
// seed yields the same inputs.
func newNQLarge(seed int64, workers int) *batch {
	return &batch{
		name:    "nq-large",
		cfg:     experiments.ReportConfig{N: batchN, Seed: seed, Workers: workers, Format: "jsonl"},
		sweeps:  []string{"nqscaling-large"},
		workers: workers,
	}
}

// reference renders the document on one worker.
func (b *batch) reference() ([]byte, error) {
	var buf bytes.Buffer
	cfg := b.cfg
	cfg.Workers = 1
	if b.name == "report" {
		err := experiments.WriteReport(&buf, cfg)
		return buf.Bytes(), err
	}
	sink, err := cfg.NewSink(&buf)
	if err != nil {
		return nil, err
	}
	r := &runner.Runner{Workers: 1, Graphs: runner.NewGraphCache(nil, 0), Profiles: runner.NewProfileCache(nil, 0)}
	for _, name := range b.sweeps {
		tables, err := experiments.Generate(name, cfg, r)
		if err != nil {
			return nil, err
		}
		for _, t := range tables {
			if err := runner.WriteTable(sink, t); err != nil {
				return nil, err
			}
		}
	}
	return buf.Bytes(), nil
}

// passResult is what one pass measured.
type passResult struct {
	wall      time.Duration   // the cold regeneration
	sweepLat  []time.Duration // per sweep: Generate + render
	firstCell []time.Duration // per sweep: start → first resolved cell
	warmLat   []time.Duration // per re-render of the finished document
	cells     int
	doc       []byte
	warmBad   int // re-renders that differed from the first render
	rounds    float64
	dedups    uint64
}

// cellProbe records the first resolved cell of the current sweep; it is
// the runner's Observer, called from worker goroutines.
type cellProbe struct {
	start atomic.Int64 // UnixNano of the sweep start
	first atomic.Int64 // ns from start to the first cell, 0 = none yet
	cells atomic.Int64
}

func (p *cellProbe) reset() {
	p.first.Store(0)
	p.start.Store(time.Now().UnixNano())
}

func (p *cellProbe) observe(runner.CellEvent) {
	p.cells.Add(1)
	p.first.CompareAndSwap(0, max(1, time.Now().UnixNano()-p.start.Load()))
}

// generator produces one sweep's tables on r; the traced pass swaps in
// a mirror that wraps Scenario.Run.
type generator func(name string, r *runner.Runner) ([]*runner.Table, error)

// passHooks let the traced pass substitute its wrapped generators,
// probed caches and render span; the zero value is the untraced pass.
type passHooks struct {
	gen      generator
	graphs   *runner.GraphCache
	profiles *runner.ProfileCache
	render   func(fn func() error) error
	coldDone func() // called when the cold regeneration has finished
}

// pass regenerates the document once from fresh caches, then
// re-renders the finished document for the warm sample.
func (b *batch) pass(h passHooks) (passResult, error) {
	if h.gen == nil {
		h.gen = func(name string, r *runner.Runner) ([]*runner.Table, error) {
			return experiments.Generate(name, b.cfg, r)
		}
		h.graphs = runner.NewGraphCache(nil, 0)
		h.profiles = runner.NewProfileCache(nil, 0)
		h.render = func(fn func() error) error { return fn() }
		h.coldDone = func() {}
	}
	gen, render := h.gen, h.render
	var res passResult
	probe := &cellProbe{}
	r := &runner.Runner{Workers: b.workers, Graphs: h.graphs, Profiles: h.profiles, Observer: probe.observe}
	var buf bytes.Buffer
	sink, err := b.cfg.NewSink(&buf)
	if err != nil {
		return res, err
	}
	var done [][]*runner.Table
	start := time.Now()
	for _, name := range b.sweeps {
		t0 := time.Now()
		probe.reset()
		tables, err := gen(name, r)
		if err != nil {
			return res, fmt.Errorf("sweep %s: %w", name, err)
		}
		if err := render(func() error { return writeTables(sink, tables) }); err != nil {
			return res, err
		}
		res.sweepLat = append(res.sweepLat, time.Since(t0))
		res.firstCell = append(res.firstCell, time.Duration(probe.first.Load()))
		done = append(done, tables)
	}
	res.wall = time.Since(start)
	h.coldDone()
	res.cells = int(probe.cells.Load())
	res.doc = buf.Bytes()
	res.dedups = h.profiles.Stats().Dedups
	// Warm: a repeated request for the finished document re-renders
	// its tables, which must reproduce the first rendering. The heap
	// the cold pass left is collected first, so a background GC cycle
	// does not land in these sub-millisecond samples.
	runtime.GC()
	for j := 0; j < warmRenders; j++ {
		var wb bytes.Buffer
		t0 := time.Now()
		ws, _ := b.cfg.NewSink(&wb) // the format was accepted above
		for _, tables := range done {
			if err := writeTables(ws, tables); err != nil {
				return res, err
			}
		}
		res.warmLat = append(res.warmLat, time.Since(t0))
		if !bytes.Equal(wb.Bytes(), res.doc) {
			res.warmBad++
		}
	}
	for _, tables := range done {
		res.rounds += roundsTotal(tables)
	}
	return res, nil
}

func writeTables(sink runner.Sink, tables []*runner.Table) error {
	for _, t := range tables {
		if err := runner.WriteTable(sink, t); err != nil {
			return err
		}
	}
	return nil
}

// roundsTotal sums every rounds column of the rendered rows.
func roundsTotal(tables []*runner.Table) float64 {
	total := 0.0
	for _, t := range tables {
		for c, key := range t.Keys {
			if !strings.Contains(key, "rounds") {
				continue
			}
			for _, row := range t.Rows {
				if c < len(row) {
					if v, err := strconv.ParseFloat(row[c], 64); err == nil {
						total += v
					}
				}
			}
		}
	}
	return total
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// mirror re-declares one registered generator through its exported
// scenario constructor, with the same arguments registry.go passes, so
// the traced pass can wrap Scenario.Run. The traced document is checked
// against the reference like any other pass, so a mirror that drifts
// from the registry fails the run.
type mirror func(wrap cellWrap) ([]*runner.Table, error)

// cellWrap runs one cell's measurement inside the traced wrapper.
type cellWrap func(c *runner.Cell, run func() error) error

func wrapped[T any](sc *runner.Scenario[T], r *runner.Runner, wrap cellWrap, data func([]T) []*runner.Table) ([]*runner.Table, error) {
	inner := sc.Run
	sc.Run = func(c *runner.Cell) (rows []T, err error) {
		werr := wrap(c, func() error {
			rows, err = inner(c)
			return err
		})
		return rows, werr
	}
	rows, err := runner.Collect(r, sc)
	if err != nil {
		return nil, err
	}
	return data(rows), nil
}

func one(t *runner.Table) []*runner.Table { return []*runner.Table{t} }

// mirrors returns the traced generators of the batch's sweeps.
func (b *batch) mirrors(r *runner.Runner) map[string]mirror {
	n, seed := b.cfg.N, b.cfg.Seed
	fams := experiments.DefaultFamilies()
	nqFams := experiments.NQFamilies()
	return map[string]mirror{
		"nq": func(w cellWrap) ([]*runner.Table, error) {
			return wrapped(experiments.NQScalingScenario(nqFams, n, []int{16, 64, 256, 1024}), r, w,
				func(rows []experiments.NQScalingRow) []*runner.Table { return one(experiments.NQScalingData(rows)) })
		},
		"nqscaling-large": func(w cellWrap) ([]*runner.Table, error) {
			return wrapped(experiments.NQScalingLargeScenario(nqFams, n), r, w,
				func(rows []experiments.NQScalingRow) []*runner.Table {
					return one(experiments.NQScalingLargeData(rows))
				})
		},
		"table1": func(w cellWrap) ([]*runner.Table, error) {
			return wrapped(experiments.Table1Scenario(fams, n, []int{n / 4, n, 4 * n}, seed), r, w,
				func(rows []experiments.Table1Row) []*runner.Table { return one(experiments.Table1Data(rows)) })
		},
		"table2": func(w cellWrap) ([]*runner.Table, error) {
			return wrapped(experiments.Table2Scenario(fams, n, seed), r, w,
				func(rows []experiments.Table2Row) []*runner.Table { return one(experiments.Table2Data(rows)) })
		},
		"table3": func(w cellWrap) ([]*runner.Table, error) {
			return wrapped(experiments.Table3Scenario(fams, n, []int{n / 8, n / 2}, seed), r, w,
				func(rows []experiments.Table3Row) []*runner.Table { return one(experiments.Table3Data(rows)) })
		},
		"table4": func(w cellWrap) ([]*runner.Table, error) {
			return wrapped(experiments.Table4Scenario(fams, n, []float64{0.5, 0.25, 0.1}, seed), r, w,
				func(rows []experiments.Table4Row) []*runner.Table { return one(experiments.Table4Data(rows)) })
		},
		"figure1": func(w cellWrap) ([]*runner.Table, error) {
			betas := []float64{0, 1.0 / 6, 1.0 / 3, 0.5, 2.0 / 3, 5.0 / 6, 1}
			figFams := []graph.Family{graph.FamilyPath, graph.FamilyGrid2D}
			return wrapped(experiments.Figure1Scenario(figFams, n, betas, 0.5, seed), r, w,
				func(pts []experiments.Figure1Point) []*runner.Table {
					var tables []*runner.Table
					for _, fam := range figFams {
						var famPts []experiments.Figure1Point
						for _, p := range pts {
							if p.Family == fam {
								famPts = append(famPts, p)
							}
						}
						tables = append(tables, experiments.Figure1Data(fam, famPts))
					}
					return tables
				})
		},
	}
}

// tracedPass runs one pass with every cell wrapped: the cell's topology
// (GraphCache.Get, split by the probe store into graph.Build and
// Graph.Diameter) and, for the NQ sweeps, its ball profiles
// (ProfileCache.Attach) are resolved before Scenario.Run is entered, so
// the Run span's self time is the measurement alone.
func (b *batch) tracedPass(tr *tracer, passID int) (passResult, int64, int64, error) {
	gprobe, pprobe := newProbeStore(tr), newProbeStore(tr)
	graphs := runner.NewGraphCache(gprobe, 0)
	profiles := runner.NewProfileCache(pprobe, 0)
	start := tr.beginPass(passID)
	passSpan := tr.add("pass", 0, noLane, start, 0)
	var current string
	var sweepSpan int
	var mirrors map[string]mirror
	wrap := func(c *runner.Cell, run func() error) error {
		lane := tr.acquire()
		defer tr.release(lane)
		cellStart := tr.now()
		cell := tr.add("runner.cell", sweepSpan, lane, cellStart, 0)
		seed := c.GraphSeed()
		gid := goid()
		t1 := tr.now()
		g, err := graphs.Get(c.Family, c.N, seed)
		t2 := tr.now()
		get := tr.add("runner.graph_get", cell, lane, t1, t2)
		if ev, ok := gprobe.take(runner.GraphKey(c.Family, c.N, seed), gid); ok {
			tr.add("graph.build", get, lane, ev.miss, ev.put)
			tr.add("graph.diameter", get, lane, ev.put, t2)
		}
		if err != nil {
			tr.closeAt(cell, tr.now())
			return err
		}
		if strings.HasPrefix(current, "nq") {
			t3 := tr.now()
			profiles.Attach(g, c.Family, c.N, seed)
			t4 := tr.now()
			att := tr.add("runner.profile_attach", cell, lane, t3, t4)
			if ev, ok := pprobe.take(runner.ProfileKey(c.Family, c.N, seed), gid); ok {
				tr.add("graph.profiles", att, lane, ev.miss, ev.put)
			}
		}
		layer := "hybrid.simulate." + current
		if strings.HasPrefix(current, "nq") {
			layer = "nq.of"
		}
		t5 := tr.now()
		err = run()
		tr.add(layer, cell, lane, t5, tr.now())
		tr.closeAt(cell, tr.now())
		return err
	}
	gen := func(name string, r *runner.Runner) ([]*runner.Table, error) {
		if mirrors == nil {
			mirrors = b.mirrors(r)
		}
		m, ok := mirrors[name]
		if !ok {
			return nil, fmt.Errorf("no traced mirror for sweep %q", name)
		}
		current = name
		sweepSpan = tr.add("experiments.section."+name, passSpan, noLane, tr.now(), 0)
		return m(wrap)
	}
	render := func(fn func() error) error {
		lane := tr.acquire()
		t0 := tr.now()
		err := fn()
		tr.add("runner.render."+b.cfg.Format, sweepSpan, lane, t0, tr.now())
		tr.release(lane)
		tr.closeAt(sweepSpan, tr.now())
		return err
	}
	var end int64
	coldDone := func() {
		end = tr.now()
		tr.closeAt(passSpan, end)
	}
	res, err := b.pass(passHooks{gen: gen, graphs: graphs, profiles: profiles, render: render, coldDone: coldDone})
	if err != nil {
		return res, 0, 0, err
	}
	return res, end - start, tr.endPass(end), nil
}

// minPasses is the fewest untraced passes a run makes, however short
// its window.
const minPasses = 3

// runBatch renders the serial reference, then regenerates the document
// pass after pass until the window is spent. A traced run alternates
// untraced and traced passes, so both run_s figures come from the same
// process and the difference is the tracing overhead.
func runBatch(b *batch, window time.Duration, traced bool, tracePath string) (outcome, error) {
	var o outcome
	setup, err := probeSetup(b.name, b.cfg.Seed)
	if err != nil {
		return o, err
	}
	ref, err := b.reference()
	if err != nil {
		return o, fmt.Errorf("reference: %w", err)
	}
	refDigest := digest(ref)
	fmt.Printf("%s: serial reference sha256=%s (%d bytes)\n", b.name, refDigest, len(ref))

	var tr *tracer
	if traced {
		tr = newTracer(b.workers)
	}
	var walls, tracedWalls []float64
	// Per sweep of the document, its samples over the passes.
	sweepLat := make([][]float64, len(b.sweeps))
	var warmLat []float64
	firstCell := make([][]float64, len(b.sweeps))
	var cells, sweeps int
	var coldWall time.Duration
	layers := make(map[string][]float64)
	rounds := -1.0
	start := time.Now()
	for i, untraced := 0, 0; untraced < minPasses || time.Since(start) < window; i++ {
		var res passResult
		var err error
		isTraced := traced && i%2 == 1
		before := sampleRuntime()
		if isTraced {
			var wall, idle int64
			res, wall, idle, err = b.tracedPass(tr, i)
			if err == nil {
				tracedWalls = append(tracedWalls, res.wall.Seconds())
				o.failed += b.collectLayers(tr, i, wall, idle, res, before.to(sampleRuntime()), layers)
			}
		} else {
			res, err = b.pass(passHooks{})
			untraced++
		}
		if err != nil {
			return o, err
		}
		o.attempted += len(b.sweeps) + len(res.warmLat)
		o.failed += res.warmBad
		if d := digest(res.doc); d != refDigest {
			fmt.Printf("%s: pass %d sha256=%s differs from the serial reference\n", b.name, i, d)
			o.failed += len(b.sweeps)
		}
		if rounds >= 0 && res.rounds != rounds {
			fmt.Printf("%s: pass %d rounds total %.0f, earlier passes %.0f\n", b.name, i, res.rounds, rounds)
			o.failed++
		}
		rounds = res.rounds
		if isTraced {
			continue
		}
		walls = append(walls, res.wall.Seconds())
		coldWall += res.wall
		cells += res.cells
		sweeps += len(b.sweeps)
		for j := range b.sweeps {
			sweepLat[j] = append(sweepLat[j], ms(res.sweepLat[j]))
			firstCell[j] = append(firstCell[j], ms(res.firstCell[j]))
		}
		for _, d := range res.warmLat {
			warmLat = append(warmLat, ms(d))
		}
	}
	fmt.Printf("%s: %d untraced and %d traced passes, every document checked against sha256=%s\n",
		b.name, len(walls), len(tracedWalls), refDigest)

	// The document's sweeps differ in size by more than passes vary, so
	// pooling their samples would put the median in the gap between
	// two sweeps; each sweep is reduced to its median over the passes
	// first, and the percentiles are taken over the document's sweeps.
	lat, first := perSweep(sweepLat), perSweep(firstCell)
	o.set("run_s", median(walls), "s", len(walls))
	o.set("cells_per_s", float64(cells)/coldWall.Seconds(), "1/s", cells)
	o.set("sweeps_per_s", float64(sweeps)/coldWall.Seconds(), "1/s", sweeps)
	o.set("sweep_p50_ms", median(lat), "ms", sweeps)
	o.set("sweep_p95_ms", quantile(lat, 0.95), "ms", sweeps)
	o.set("cold_p50_ms", median(lat), "ms", sweeps)
	o.set("warm_p50_ms", median(warmLat), "ms", len(warmLat))
	o.set("first_cell_p50_ms", median(first), "ms", sweeps)
	o.set("setup_s", setup, "s", setupProbes)
	o.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	if traced {
		for name, xs := range layers {
			o.set(name, median(xs), unitOf(name), len(xs))
		}
		o.set("trace.overhead_s", median(tracedWalls)-median(walls), "s", len(tracedWalls))
		if err := tr.write(tracePath); err != nil {
			return o, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("%s: spans written to %s; tracing overhead %.4f s per pass\n", b.name, tracePath, median(tracedWalls)-median(walls))
	}
	return o, nil
}

// perSweep reduces each sweep's samples to their median.
func perSweep(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = median(x)
	}
	return out
}

// collectLayers turns one traced pass's spans into per-layer samples
// and returns 1 if the pass fails the lane accounting.
func (b *batch) collectLayers(tr *tracer, pass int, wall, idle int64, res passResult, rt runtimeDelta, layers map[string][]float64) int {
	acc := tr.account(pass, "runner.cell")
	add := func(name string, v float64) { layers[name] = append(layers[name], v) }
	add("graph.build_s", acc.self["graph.build"])
	add("graph.diameter_s", acc.self["graph.diameter"])
	add("graph.profiles_s", acc.self["graph.profiles"])
	add("graph.profile_dedups", float64(res.dedups))
	add("nq.of_s", acc.self["nq.of"])
	for _, sec := range []string{"table1", "table2", "table3", "table4", "figure1"} {
		add("hybrid.simulate_s."+sec, acc.self["hybrid.simulate."+sec])
	}
	for _, sec := range []string{"nq", "table1", "table2", "table3", "table4", "figure1", "nqscaling-large"} {
		add("experiments.section_s."+sec, acc.dur["experiments.section."+sec])
	}
	add("hybrid.rounds_total", res.rounds)
	add("runner.wait_s", acc.self["runner.graph_get"]+acc.self["runner.profile_attach"]+acc.self["runner.cell"])
	add("runner.idle_s", float64(idle)/1e9)
	add("runner.cell_max_ms", acc.maxCell*1e3)
	add("runner.render_s."+b.cfg.Format, acc.self["runner.render."+b.cfg.Format])
	add("runtime.cpu_util", rt.cpuUtil)
	add("runtime.alloc_mb", rt.allocMB)
	add("runtime.gc_cycles", rt.gcCycles)
	add("runtime.gc_pause_ms", rt.gcPauseMS)
	add("trace.spans", float64(acc.count))
	capacity := float64(b.workers) * float64(wall) / 1e9
	residual := math.Abs(capacity-acc.laneBusy-float64(idle)/1e9) / capacity
	add("trace.unaccounted_share", residual)
	if residual > accountTolerance {
		fmt.Printf("%s: traced pass %d: lane self time %.4f s + idle %.4f s vs %d×%.4f s wall (off by %.2f%%, tolerance %.0f%%)\n",
			b.name, pass, acc.laneBusy, float64(idle)/1e9, b.workers, float64(wall)/1e9, 100*residual, 100*accountTolerance)
		return 1
	}
	return 0
}
