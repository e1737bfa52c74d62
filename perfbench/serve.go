package main

// The serve workload: an in-process hybridnet.Server behind its
// Handler() on loopback, with a disk tier in a temporary directory.
// Set-up populates a pool of sweeps, closes the server and reopens it on
// the same directory; then closed-loop clients replay a seeded request
// sequence in which a fixed share of requests repeats a pooled or
// earlier one.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/hybridnet"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/sse"
)

const (
	// poolSweeps is how many sweeps set-up computes before the restart.
	poolSweeps = 16
	// repeatsPerTen is the fixed share of repeated requests: in every
	// run of ten consecutive requests, this many repeat a pooled or
	// earlier request (half of them with fresh:true).
	repeatsPerTen = 7
	// streamEvery: every streamEvery-th request consumes the SSE stream
	// instead of waiting for the static document.
	streamEvery = 4
	// blockRequests is the serve workload's pass: run_s is the median
	// time the clients take to complete this many requests.
	blockRequests = 24
	// reopens is how many times set-up reopens the populated store;
	// setup_s is the median.
	reopens = 9
	// tracedWindows splits a traced run into alternating untraced and
	// traced windows (barrier between them).
	tracedWindows = 4
	// memoryTierBytes is the artifact store's memory budget: far below
	// the run's working set, so repeated requests also read the disk
	// tier while cold ones write it.
	memoryTierBytes = 256 << 10
	// maxConflicts bounds how often one results fetch waits out a
	// concurrent re-run of its sweep.
	maxConflicts = 5
	// requestTimeout bounds every HTTP exchange.
	requestTimeout = 2 * time.Minute
)

var serveScenarios = []string{"table1", "table2", "table3", "table4", "figure1", "nq"}

type serveConfig struct {
	seed      int64
	window    time.Duration
	traced    bool
	workers   int
	clients   int
	tracePath string
	// corruptAfter, when positive, flips one byte of the corruptAfter-th
	// served document that has an earlier digest to match — the
	// self-test that a mismatch is counted as a failure.
	corruptAfter int
}

// request is one entry of the replayed sequence.
type request struct {
	idx    int
	body   hybridnet.SweepRequest
	format string
	stream bool
}

// sequence generates the seeded request sequence; clients draw from it
// in order.
type sequence struct {
	mu      sync.Mutex
	rng     *rand.Rand
	history []hybridnet.SweepRequest
	next    int
	slots   []bool // repeat pattern of the current run of ten
	repeats int
	combos  []combo // the rest of the current cycle of new-request shapes
	// fams holds, per family pool, the rest of the current seeded cycle
	// through that pool.
	fams map[string][]graph.Family
}

// combo is the shape of a new request; its size drives the sweep's cost.
type combo struct {
	scenario string
	families int
	n        int
}

func newSequence(seed int64) *sequence {
	return &sequence{rng: rand.New(rand.NewSource(seed)), fams: make(map[string][]graph.Family)}
}

// fresh draws a request for content not requested before. New requests
// cycle through every (scenario, family count, n) shape, and their
// families through each family pool, in seeded orders, so every run
// carries the same mix of sweep sizes; the seed picks the orders and
// the sweep seeds.
func (s *sequence) fresh() hybridnet.SweepRequest {
	if len(s.combos) == 0 {
		for _, sc := range serveScenarios {
			for k := 1; k <= 3; k++ {
				for _, n := range []int{256, 576} {
					s.combos = append(s.combos, combo{sc, k, n})
				}
			}
		}
		s.rng.Shuffle(len(s.combos), func(i, j int) { s.combos[i], s.combos[j] = s.combos[j], s.combos[i] })
	}
	c := s.combos[0]
	s.combos = s.combos[1:]
	pool, key := experiments.DefaultFamilies(), "all"
	if c.scenario == "nq" {
		pool, key = experiments.NQFamilies(), "nq"
	}
	req := hybridnet.SweepRequest{Scenario: c.scenario, Families: s.take(key, pool, c.families), N: c.n, Seed: 1 + s.rng.Int63n(1<<40)}
	s.history = append(s.history, req)
	return req
}

// take returns the next k distinct families of the pool's cycle; a
// family already in the request waits at the front for the next one.
func (s *sequence) take(key string, pool []graph.Family, k int) []string {
	var out []string
	var deferred []graph.Family
	picked := make(map[graph.Family]bool)
	for len(out) < k {
		if len(s.fams[key]) == 0 {
			for _, i := range s.rng.Perm(len(pool)) {
				s.fams[key] = append(s.fams[key], pool[i])
			}
		}
		f := s.fams[key][0]
		s.fams[key] = s.fams[key][1:]
		if picked[f] {
			deferred = append(deferred, f)
			continue
		}
		picked[f] = true
		out = append(out, string(f))
	}
	s.fams[key] = append(deferred, s.fams[key]...)
	return out
}

func (s *sequence) draw() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.next
	s.next++
	if i%10 == 0 {
		s.slots = make([]bool, 10)
		for _, j := range s.rng.Perm(10)[:repeatsPerTen] {
			s.slots[j] = true
		}
	}
	formats := experiments.Formats()
	r := request{idx: i, format: formats[i%len(formats)], stream: i%streamEvery == streamEvery-1}
	if s.slots[i%10] && len(s.history) > 0 {
		r.body = s.history[s.rng.Intn(len(s.history))]
		r.body.Fresh = s.repeats%2 == 0
		s.repeats++
	} else {
		r.body = s.fresh()
	}
	return r
}

// live is a running server on a loopback listener.
type live struct {
	srv  *hybridnet.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startServer(cfg hybridnet.ServerConfig, hc *http.Client) (*live, error) {
	srv, err := hybridnet.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &live{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln)
	}()
	resp, err := hc.Get(l.base + "/v1/scenarios")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readiness probe: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		l.stop()
		return nil, err
	}
	return l, nil
}

func (l *live) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	<-l.done
	return errors.Join(err, l.srv.Close())
}

// sample is one completed request.
type sample struct {
	end       time.Time
	latency   time.Duration
	firstCell time.Duration // streamed requests only
	cold      bool
	stream    bool
	cells     int
}

// serveRun is the state the closed-loop clients share: the request
// sequence, the server, and the verification and sample records.
type serveRun struct {
	cfg  serveConfig
	hc   *http.Client
	base string
	srv  *hybridnet.Server
	seq  *sequence
	tr   *tracer

	mu       sync.Mutex
	served   map[string]string // id + "/" + format → sha256 of the first bytes served
	seen     map[string]bool   // content addresses requested so far
	checks   int               // documents compared with an earlier digest
	failed   int
	attempts int
	samples  []sample
	// client-side endpoint timings of the current traced window
	epClient map[string][]float64
}

func (r *serveRun) fail(format string, args ...any) {
	fmt.Printf("serve: "+format+"\n", args...)
	r.mu.Lock()
	r.failed++
	r.mu.Unlock()
}

// check compares a served document with the first bytes served for its
// content address, recording them if none were.
func (r *serveRun) check(key string, body []byte) bool {
	r.mu.Lock()
	want, ok := r.served[key]
	if ok {
		r.checks++
		if r.checks == r.cfg.corruptAfter && len(body) > 0 {
			body = append([]byte(nil), body...)
			body[len(body)/2] ^= 0x20
		}
	}
	d := digest(body)
	if !ok {
		r.served[key] = d
	}
	r.mu.Unlock()
	if ok && d != want {
		r.fail("%s: sha256=%s, first served %s", key, d, want)
		return false
	}
	return true
}

func (r *serveRun) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, rd)
	if err != nil {
		return nil, err
	}
	return r.hc.Do(req)
}

func (r *serveRun) getBody(ctx context.Context, path string) ([]byte, error) {
	b, _, err := r.get(ctx, path)
	return b, err
}

func (r *serveRun) get(ctx context.Context, path string) ([]byte, int, error) {
	resp, err := r.do(ctx, "GET", path, nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, http.StatusOK, nil
}

// results fetches a finished sweep's document. A fresh:true resubmission
// of the same content address by the other client can replace the
// finished sweep between the wait and the fetch; the server then answers
// 409 until the re-run finishes, and the client waits again, as the API
// asks.
func (r *serveRun) results(ctx context.Context, id, format string) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		b, code, err := r.get(ctx, "/v1/sweeps/"+id+"/results?format="+format)
		if code != http.StatusConflict || attempt == maxConflicts {
			return b, err
		}
		if _, err := r.wait(ctx, id); err != nil {
			return nil, err
		}
	}
}

func (r *serveRun) submit(ctx context.Context, body hybridnet.SweepRequest) (hybridnet.SweepStatus, error) {
	var st hybridnet.SweepStatus
	blob, _ := json.Marshal(body)
	resp, err := r.do(ctx, "POST", "/v1/sweeps", blob)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return st, json.Unmarshal(b, &st)
}

func (r *serveRun) wait(ctx context.Context, id string) (hybridnet.SweepStatus, error) {
	var st hybridnet.SweepStatus
	b, err := r.getBody(ctx, "/v1/sweeps/"+id+"?wait=1")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, err
	}
	if st.State != hybridnet.SweepDone {
		return st, fmt.Errorf("sweep %s: state %q %s", id, st.State, st.Error)
	}
	return st, nil
}

// stream consumes the SSE stream to its terminal event and reassembles
// the cells' rows in canonical order — the static jsonl document.
func (r *serveRun) stream(ctx context.Context, id string, t0 time.Time) (doc []byte, ttfb, firstCell time.Duration, cells int, err error) {
	resp, err := r.do(ctx, "GET", "/v1/sweeps/"+id+"/stream?format=sse", nil)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer resp.Body.Close()
	ttfb = time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, 0, 0, 0, fmt.Errorf("stream %s: HTTP %d: %s", id, resp.StatusCode, bytes.TrimSpace(b))
	}
	rows := make(map[int][]string)
	terminal := ""
	err = sse.Decode(resp.Body, func(ev sse.Event) error {
		switch ev.Name {
		case hybridnet.StreamCell:
			if firstCell == 0 {
				firstCell = time.Since(t0)
			}
			if _, dup := rows[ev.ID]; dup {
				return fmt.Errorf("cell %d delivered twice", ev.ID)
			}
			rows[ev.ID] = ev.Data
		case hybridnet.StreamDone, hybridnet.StreamFailed, hybridnet.StreamDropped:
			terminal = ev.Name
		}
		return nil
	})
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("stream %s: %w", id, err)
	}
	if terminal != hybridnet.StreamDone {
		return nil, 0, 0, 0, fmt.Errorf("stream %s: terminal event %q", id, terminal)
	}
	idx := make([]int, 0, len(rows))
	for i := range rows {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var buf bytes.Buffer
	for _, i := range idx {
		for _, line := range rows[i] {
			buf.WriteString(line)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes(), ttfb, firstCell, len(rows), nil
}

// span records a lane span when the current window is traced.
func (r *serveRun) span(on bool, name string, parent, lane int, start time.Time) int {
	if !on {
		return 0
	}
	return r.tr.add(name, parent, lane, int64(start.Sub(r.tr.t0)), r.tr.now())
}

func (r *serveRun) endpoint(on bool, name string, d time.Duration) {
	if !on {
		return
	}
	r.mu.Lock()
	r.epClient[name] = append(r.epClient[name], ms(d))
	r.mu.Unlock()
}

// one runs a single request end to end and records its sample.
func (r *serveRun) one(req request, lane int, traced bool) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	t0 := time.Now()
	var reqSpan int
	if traced {
		reqSpan = r.tr.add("hybridnet.request", 0, lane, int64(t0.Sub(r.tr.t0)), 0)
		defer func() { r.tr.closeAt(reqSpan, r.tr.now()) }()
	}
	s := sample{stream: req.stream}
	st, err := r.submit(ctx, req.body)
	r.span(traced, "hybridnet.submit", reqSpan, lane, t0)
	r.endpoint(traced, "submit", time.Since(t0))
	if err != nil {
		r.fail("request %d: %v", req.idx, err)
		return
	}
	r.mu.Lock()
	s.cold = !r.seen[st.ID]
	r.seen[st.ID] = true
	r.mu.Unlock()

	var docKey string
	var doc []byte
	if req.stream {
		t1 := time.Now()
		var ttfb time.Duration
		doc, ttfb, s.firstCell, s.cells, err = r.stream(ctx, st.ID, t1)
		r.span(traced, "hybridnet.stream", reqSpan, lane, t1)
		r.endpoint(traced, "stream", ttfb)
		docKey = st.ID + "/jsonl"
	} else {
		t1 := time.Now()
		var fin hybridnet.SweepStatus
		fin, err = r.wait(ctx, st.ID)
		r.span(traced, "hybridnet.status_wait", reqSpan, lane, t1)
		r.endpoint(traced, "status_wait", time.Since(t1))
		if err == nil {
			s.cells = fin.Cells
			t2 := time.Now()
			doc, err = r.results(ctx, st.ID, req.format)
			r.span(traced, "hybridnet.results", reqSpan, lane, t2)
			r.endpoint(traced, "results", time.Since(t2))
		}
		docKey = st.ID + "/" + req.format
	}
	if err != nil {
		r.fail("request %d (%s): %v", req.idx, st.ID, err)
		return
	}
	s.end = time.Now()
	s.latency = s.end.Sub(t0)

	t3 := time.Now()
	if req.stream {
		// The streamed document must equal the static jsonl one.
		r.mu.Lock()
		_, known := r.served[docKey]
		r.mu.Unlock()
		if !known {
			static, err := r.results(ctx, st.ID, "jsonl")
			if err != nil {
				r.fail("request %d: static jsonl: %v", req.idx, err)
				return
			}
			r.check(docKey, static)
		}
	}
	ok := r.check(docKey, doc)
	r.span(traced, "bench.check", reqSpan, lane, t3)
	if traced && !req.stream {
		// runner.WriteTable of the finished sweep into the request's
		// sink, timed in-process (traced windows only).
		// A concurrent fresh re-run of the same sweep (ErrSweepRunning)
		// leaves nothing to render yet; that sample is skipped.
		t4 := time.Now()
		switch err := r.srv.WriteResults(io.Discard, st.ID, req.format); {
		case err == nil:
			r.span(true, "runner.render."+req.format, reqSpan, lane, t4)
		case !errors.Is(err, hybridnet.ErrSweepRunning):
			r.fail("request %d: WriteResults: %v", req.idx, err)
		}
	}
	if ok {
		r.mu.Lock()
		r.samples = append(r.samples, s)
		r.mu.Unlock()
	}
}

// window runs the clients until d has passed and waits for them.
func (r *serveRun) window(d time.Duration, traced bool) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < r.cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := r.seq.draw()
				r.mu.Lock()
				r.attempts++
				r.mu.Unlock()
				lane := 0
				if traced {
					lane = r.tr.acquire()
				}
				r.one(req, lane, traced)
				if traced {
					r.tr.release(lane)
				}
			}
		}()
	}
	wg.Wait()
}

// scrape reads the numeric series of /metrics.
func (r *serveRun) scrape() (map[string]float64, error) {
	b, err := r.getBody(context.Background(), "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

func runServe(cfg serveConfig) (outcome, error) {
	var o outcome
	if err := os.MkdirAll(".bench_build/tmp", 0o755); err != nil {
		return o, err
	}
	dir, err := os.MkdirTemp(".bench_build/tmp", "serve-")
	if err != nil {
		return o, err
	}
	defer os.RemoveAll(dir)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * cfg.clients, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	scfg := hybridnet.ServerConfig{Workers: cfg.workers, CacheDir: dir, CacheBytes: memoryTierBytes}
	r := &serveRun{cfg: cfg, hc: hc, seq: newSequence(cfg.seed), served: make(map[string]string),
		seen: make(map[string]bool), epClient: make(map[string][]float64)}

	// Populate the pool: cold sweeps whose documents (every format)
	// become the first bytes served for their content addresses.
	l, err := startServer(scfg, hc)
	if err != nil {
		return o, err
	}
	r.base, r.srv = l.base, l.srv
	for i := 0; i < poolSweeps; i++ {
		body := r.seq.fresh()
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		st, err := r.submit(ctx, body)
		if err == nil {
			_, err = r.wait(ctx, st.ID)
		}
		for _, f := range experiments.Formats() {
			if err != nil {
				break
			}
			var doc []byte
			if doc, err = r.results(ctx, st.ID, f); err == nil {
				r.check(st.ID+"/"+f, doc)
			}
		}
		cancel()
		if err != nil {
			l.stop()
			return o, fmt.Errorf("populating the pool: %w", err)
		}
		r.seen[st.ID] = true
	}
	if err := l.stop(); err != nil {
		return o, fmt.Errorf("closing the populated server: %w", err)
	}
	r.checks = 0

	// Set-up: reopen the populated store and start the server.
	var setups []float64
	for i := 0; i < reopens; i++ {
		t0 := time.Now()
		if l, err = startServer(scfg, hc); err != nil {
			return o, fmt.Errorf("reopening: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < reopens-1 {
			if err := l.stop(); err != nil {
				return o, err
			}
		}
	}
	defer l.stop()
	r.base, r.srv = l.base, l.srv
	fmt.Printf("serve: pool of %d sweeps populated; server reopened %d times on %s\n", poolSweeps, reopens, dir)

	layers := make(map[string][]float64)
	var untracedBlocks, tracedBlocks []float64
	start := time.Now()
	if !cfg.traced {
		r.window(cfg.window, false)
		untracedBlocks = blocks(r.samples, start)
	} else {
		r.tr = newTracer(cfg.clients)
		for w := 0; w < tracedWindows; w++ {
			from, ws := len(r.samples), time.Now()
			if w%2 == 0 {
				r.window(cfg.window/tracedWindows, false)
				untracedBlocks = append(untracedBlocks, blocks(r.samples[from:], ws)...)
				continue
			}
			r.mu.Lock()
			r.epClient = make(map[string][]float64)
			r.mu.Unlock()
			before, err := r.snapshot()
			if err != nil {
				return o, err
			}
			passStart := r.tr.beginPass(w)
			stopSampler := r.sampleQueue()
			ws = time.Now()
			r.window(cfg.window/tracedWindows, true)
			queuedMax := stopSampler()
			end := r.tr.now()
			idle := r.tr.endPass(end)
			tracedBlocks = append(tracedBlocks, blocks(r.samples[from:], ws)...)
			after, err := r.snapshot()
			if err != nil {
				return o, err
			}
			if !r.collectLayers(w, end-passStart, idle, before, after, queuedMax, layers) {
				r.mu.Lock()
				r.failed++
				r.mu.Unlock()
			}
		}
	}
	wall := time.Since(start)

	var lat, cold, warm, first []float64
	cells := 0
	for _, s := range r.samples {
		lat = append(lat, ms(s.latency))
		if s.cold {
			cold = append(cold, ms(s.latency))
		} else {
			warm = append(warm, ms(s.latency))
		}
		if s.stream && s.firstCell > 0 {
			first = append(first, ms(s.firstCell))
		}
		cells += s.cells
	}
	r.seq.mu.Lock()
	repeatShare := float64(r.seq.repeats) / float64(r.seq.next)
	r.seq.mu.Unlock()
	fmt.Printf("serve: %d requests (%d cold, %d warm; %.1f%% repeats), %d content addresses checked, combined sha256=%s\n",
		len(r.samples), len(cold), len(warm), 100*repeatShare, len(r.served), r.servedDigest())

	o.attempted, o.failed = r.attempts, r.failed
	o.set("run_s", median(untracedBlocks), "s", len(untracedBlocks))
	o.set("cells_per_s", float64(cells)/wall.Seconds(), "1/s", cells)
	o.set("sweeps_per_s", float64(len(r.samples))/wall.Seconds(), "1/s", len(r.samples))
	o.set("sweep_p50_ms", median(lat), "ms", len(lat))
	o.set("sweep_p95_ms", quantile(lat, 0.95), "ms", len(lat))
	o.set("cold_p50_ms", median(cold), "ms", len(cold))
	o.set("warm_p50_ms", median(warm), "ms", len(warm))
	o.set("first_cell_p50_ms", median(first), "ms", len(first))
	o.set("setup_s", median(setups), "s", len(setups))
	o.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	if cfg.traced {
		for name, xs := range layers {
			o.set(name, median(xs), unitOf(name), len(xs))
		}
		o.set("trace.overhead_s", median(tracedBlocks)-median(untracedBlocks), "s", len(tracedBlocks))
		if err := r.tr.write(cfg.tracePath); err != nil {
			return o, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("serve: spans written to %s; tracing overhead %.4f s per %d requests\n",
			cfg.tracePath, median(tracedBlocks)-median(untracedBlocks), blockRequests)
	}
	return o, nil
}

// blocks splits completions, in completion order, into runs of
// blockRequests and returns each run's duration.
func blocks(samples []sample, start time.Time) []float64 {
	ends := make([]time.Time, 0, len(samples))
	for _, s := range samples {
		ends = append(ends, s.end)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	var out []float64
	prev := start
	for i := blockRequests - 1; i < len(ends); i += blockRequests {
		out = append(out, ends[i].Sub(prev).Seconds())
		prev = ends[i]
	}
	return out
}

func (r *serveRun) servedDigest() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.served))
	for k := range r.served {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + " " + r.served[k] + "\n")
	}
	return digest([]byte(b.String()))
}

// snapshot is the server state the serve per-layer metrics are deltas of.
type snapshot struct {
	metrics map[string]float64
	cache   hybridnet.CacheStats
	rt      runtimeSample
}

func (r *serveRun) snapshot() (snapshot, error) {
	m, err := r.scrape()
	return snapshot{metrics: m, cache: r.srv.CacheStats(), rt: sampleRuntime()}, err
}

// sampleQueue samples the pool's queue depth until the returned stop
// function is called; stop returns the maximum seen.
func (r *serveRun) sampleQueue() func() int {
	stop := make(chan struct{})
	res := make(chan int)
	go func() {
		peak := 0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				res <- peak
				return
			case <-tick.C:
				peak = max(peak, r.srv.CacheStats().Pool.Queued)
			}
		}
	}()
	return func() int {
		close(stop)
		return <-res
	}
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return "s"
}

// collectLayers turns one traced window into per-layer samples and
// reports whether its lane accounting holds.
func (r *serveRun) collectLayers(pass int, wall, idle int64, a, b snapshot, queuedMax int, layers map[string][]float64) bool {
	acc := r.tr.account(pass, "hybridnet.request")
	add := func(name string, v float64) { layers[name] = append(layers[name], v) }
	r.mu.Lock()
	client := r.epClient
	r.mu.Unlock()
	for _, ep := range []string{"submit", "status_wait", "results", "stream"} {
		series := `hybridd_http_request_seconds_%s{endpoint="` + ep + `"}`
		count := b.metrics[fmt.Sprintf(series, "count")] - a.metrics[fmt.Sprintf(series, "count")]
		total := b.metrics[fmt.Sprintf(series, "sum")] - a.metrics[fmt.Sprintf(series, "sum")]
		server := 0.0
		if count > 0 {
			server = 1e3 * total / count
		}
		add("hybridnet.server_ms."+ep, server)
		transport := 0.0
		if xs := client[ep]; len(xs) > 0 {
			transport = sum(xs)/float64(len(xs)) - server
		}
		add("hybridnet.transport_ms."+ep, transport)
	}
	delta := func(name string) float64 { return b.metrics[name] - a.metrics[name] }
	add("hybridnet.stream_events", delta("hybridd_stream_events_total"))
	add("hybridnet.stream_dropped", delta("hybridd_stream_dropped_total"))
	add("admission.shed", delta(`hybridd_admission_shed_total{reason="rate"}`)+delta(`hybridd_admission_shed_total{reason="capacity"}`))
	for _, ns := range []string{"results", "graphs", "profiles", "sweeps"} {
		x, y := a.cache.Namespaces[ns], b.cache.Namespaces[ns]
		add("artifact."+ns+".hits", float64(y.Hits-x.Hits))
		add("artifact."+ns+".misses", float64(y.Misses-x.Misses))
		add("artifact."+ns+".puts", float64(y.Puts-x.Puts))
		add("artifact."+ns+".disk_hits", float64(y.DiskHits-x.DiskHits))
	}
	x, y := a.cache.Namespaces["results"], b.cache.Namespaces["results"]
	ratio := 0.0
	if lookups := float64(y.Hits - x.Hits + y.Misses - x.Misses); lookups > 0 {
		ratio = float64(y.Hits-x.Hits) / lookups
	}
	add("artifact.results_hit_ratio", ratio)
	if b.cache.Disk != nil {
		add("artifact.disk_bytes", float64(b.cache.Disk.Bytes))
		comp := b.cache.Disk.Compactions
		if a.cache.Disk != nil {
			comp -= a.cache.Disk.Compactions
		}
		add("artifact.compactions", float64(comp))
	}
	add("runner.pool_queued_max", float64(queuedMax))
	add("runner.graph_builds", float64(b.cache.GraphCache.Builds-a.cache.GraphCache.Builds))
	add("runner.profile_computes", float64(b.cache.ProfileCache.Computes-a.cache.ProfileCache.Computes))
	for _, f := range experiments.Formats() {
		add("runner.render_s."+f, acc.self["runner.render."+f])
	}
	add("runner.idle_s", float64(idle)/1e9)
	rt := a.rt.to(b.rt)
	add("runtime.cpu_util", rt.cpuUtil)
	add("runtime.alloc_mb", rt.allocMB)
	add("runtime.gc_cycles", rt.gcCycles)
	add("runtime.gc_pause_ms", rt.gcPauseMS)
	add("trace.spans", float64(acc.count))
	capacity := float64(r.cfg.clients) * float64(wall) / 1e9
	residual := math.Abs(capacity-acc.laneBusy-float64(idle)/1e9) / capacity
	add("trace.unaccounted_share", residual)
	if residual > accountTolerance {
		fmt.Printf("serve: traced window %d: lane self time %.4f s + idle %.4f s vs %d×%.4f s wall (off by %.2f%%, tolerance %.0f%%)\n",
			pass, acc.laneBusy, float64(idle)/1e9, r.cfg.clients, float64(wall)/1e9, 100*residual, 100*accountTolerance)
		return false
	}
	return true
}
