package main

// In-memory span tracing for the traced (--trace 1) runs. Spans are
// recorded by the benchmark around its calls into the program's public
// functions; nothing inside the program is instrumented.
//
// Worker time is accounted on lanes: a lane is one of the `workers`
// execution slots (a sweep worker for the batch workloads, a client
// for serve). A lane span holds its lane from start to end; the time a
// lane is not held is idle. Per pass, the self times of all lane spans
// plus the lane idle time must equal lanes × pass wall within
// accountTolerance — the check that the self-time arithmetic neither
// double-counts nor loses time.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// accountTolerance bounds |lanes×wall − Σ self − idle| as a share of
// lanes×wall.
const accountTolerance = 0.02

// noLane marks container spans (a pass, a sweep) that run on the
// orchestrating goroutine and cover lane spans.
const noLane = -1

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	lanes chan int

	mu       sync.Mutex
	spans    []span
	pass     int
	released []int64 // per lane: when it was last released
	idle     int64   // idle lane-ns of the current pass
}

func newTracer(lanes int) *tracer {
	t := &tracer{t0: time.Now(), lanes: make(chan int, lanes), released: make([]int64, lanes)}
	for i := 0; i < lanes; i++ {
		t.lanes <- i
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginPass starts a traced pass: every lane is free from now on.
func (t *tracer) beginPass(pass int) int64 {
	now := t.now()
	t.mu.Lock()
	t.pass = pass
	t.idle = 0
	for i := range t.released {
		t.released[i] = now
	}
	t.mu.Unlock()
	return now
}

// endPass closes the pass (all lanes must be free) and returns its
// lane idle time.
func (t *tracer) endPass(end int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.released {
		t.idle += end - r
	}
	return t.idle
}

func (t *tracer) acquire() int {
	lane := <-t.lanes
	now := t.now()
	t.mu.Lock()
	t.idle += now - t.released[lane]
	t.mu.Unlock()
	return lane
}

func (t *tracer) release(lane int) {
	now := t.now()
	t.mu.Lock()
	t.released[lane] = now
	t.mu.Unlock()
	t.lanes <- lane
}

func (t *tracer) closeAt(id int, end int64) {
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a finished span and returns its id (ids start at 1;
// parent 0 is the root).
func (t *tracer) add(name string, parent, lane int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Lane: lane, Pass: t.pass, Start: start, End: end})
	return id
}

// passAccount is one traced pass's self-time breakdown.
type passAccount struct {
	self     map[string]float64 // span name → self seconds
	dur      map[string]float64 // span name → total duration, seconds
	laneBusy float64            // Σ self of lane spans, seconds
	maxCell  float64            // longest span named cellSpan, seconds
	count    int
}

// account computes self times (duration minus the union of the
// children's intervals) for every span of one pass.
func (t *tracer) account(pass int, cellSpan string) passAccount {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	var mine []span
	for _, s := range t.spans {
		if s.Pass != pass {
			continue
		}
		mine = append(mine, s)
		children[s.Parent] = append(children[s.Parent], s)
	}
	acc := passAccount{self: make(map[string]float64), dur: make(map[string]float64), count: len(mine)}
	for _, s := range mine {
		self := float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
		acc.self[s.Name] += self
		acc.dur[s.Name] += float64(s.End-s.Start) / 1e9
		if s.Lane != noLane {
			acc.laneBusy += self
		}
		if s.Name == cellSpan {
			acc.maxCell = max(acc.maxCell, float64(s.End-s.Start)/1e9)
		}
	}
	return acc
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// goid returns the calling goroutine's id. The blob-store probes use it
// to tell the goroutine that computes a cache entry from the ones that
// wait for it: only the computing goroutine calls into the store.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	s := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(string(s), 10, 64)
	return id
}

// probeStore is a runner.BlobStore that stores nothing: every Get
// misses. Attached to a GraphCache or ProfileCache it timestamps the
// cache's own calls — the miss marks the start of a build or profile
// computation, the Put its end — so the traced pass can split
// GraphCache.Get into graph.Build and Graph.Diameter and tell a
// computation from a singleflight wait. The cost it adds is the
// encoding the cache performs before Put.
type probeStore struct {
	tr *tracer
	mu sync.Mutex
	ev map[string]probeEvent
}

type probeEvent struct {
	gid       uint64
	miss, put int64
}

func newProbeStore(tr *tracer) *probeStore {
	return &probeStore{tr: tr, ev: make(map[string]probeEvent)}
}

func (p *probeStore) Get(key string) ([]byte, bool) {
	now := p.tr.now()
	gid := goid()
	p.mu.Lock()
	p.ev[key] = probeEvent{gid: gid, miss: now}
	p.mu.Unlock()
	return nil, false
}

func (p *probeStore) Put(key string, _ []byte) {
	now := p.tr.now()
	p.mu.Lock()
	ev := p.ev[key]
	ev.put = now
	p.ev[key] = ev
	p.mu.Unlock()
}

// take returns the key's event if the calling goroutine produced it.
func (p *probeStore) take(key string, gid uint64) (probeEvent, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ev, ok := p.ev[key]
	if !ok || ev.gid != gid || ev.put == 0 {
		return probeEvent{}, false
	}
	delete(p.ev, key)
	return ev, true
}
