package runner

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// mapBlobStore is a minimal BlobStore for tests, with a put/get trace.
type mapBlobStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	puts int
}

func newMapBlobStore() *mapBlobStore { return &mapBlobStore{m: make(map[string][]byte)} }

func (s *mapBlobStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.m[key]
	return v, ok
}

func (s *mapBlobStore) Put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = value
}

// floatRow exercises exact round-tripping of awkward values through the
// cache codec.
type floatRow struct {
	Label string
	V     float64
	N     int64
}

func floatScenario(runs *atomic.Int64) *Scenario[floatRow] {
	return &Scenario[floatRow]{
		Name:     "floats",
		Families: []graph.Family{graph.FamilyPath},
		Ns:       []int{8, 16},
		Points:   PointsEps([]float64{0.25, 0.5}),
		Run: func(c *Cell) ([]floatRow, error) {
			runs.Add(1)
			return []floatRow{
				{Label: c.String(), V: c.Point.Eps * float64(c.N) / 3, N: c.Seed()},
				{Label: "inf", V: math.Inf(1), N: int64(c.N)},
			}, nil
		},
	}
}

// TestCollectCacheRoundTrip: a second Collect with a warm cache must
// run zero cells and return identical rows.
func TestCollectCacheRoundTrip(t *testing.T) {
	var runs atomic.Int64
	cache := newMapBlobStore()
	r := &Runner{Workers: 2, Cache: cache}

	cold, err := Collect(r, floatScenario(&runs))
	if err != nil {
		t.Fatal(err)
	}
	coldRuns := runs.Load()
	if coldRuns != 4 {
		t.Fatalf("cold sweep ran %d cells, want 4", coldRuns)
	}

	var events, cached int
	r2 := &Runner{Workers: 2, Cache: cache, Observer: func(ev CellEvent) {
		events++
		if ev.Cached {
			cached++
		}
		if ev.Key == "" {
			t.Errorf("cell %s: empty cache key in event", ev.Cell)
		}
	}}
	// Workers: 1 keeps the observer single-threaded here.
	r2.Workers = 1
	warm, err := Collect(r2, floatScenario(&runs))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != coldRuns {
		t.Fatalf("warm sweep ran %d fresh cells, want 0", runs.Load()-coldRuns)
	}
	if events != 4 || cached != 4 {
		t.Fatalf("observer saw %d events (%d cached), want 4/4", events, cached)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm sweep returned %d rows, want %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i] != cold[i] {
			t.Fatalf("row %d differs: cold %+v, warm %+v", i, cold[i], warm[i])
		}
	}
}

// TestCollectCacheCorruptEntryFallsBack: an undecodable cache entry is
// a miss, not an error.
func TestCollectCacheCorruptEntryFallsBack(t *testing.T) {
	var runs atomic.Int64
	cache := newMapBlobStore()
	if _, err := Collect(&Runner{Workers: 1, Cache: cache}, floatScenario(&runs)); err != nil {
		t.Fatal(err)
	}
	for k := range cache.m {
		cache.m[k] = []byte("not gob")
	}
	before := runs.Load()
	rows, err := Collect(&Runner{Workers: 1, Cache: cache}, floatScenario(&runs))
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load()-before != 4 {
		t.Fatalf("corrupt entries re-ran %d cells, want 4", runs.Load()-before)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
}

// TestCacheKeySensitivity: the content address must change with every
// coordinate, the model config, and the code version — and must not
// change with anything else.
func TestCacheKeySensitivity(t *testing.T) {
	base := Cell{Scenario: "s", Family: graph.FamilyPath, N: 32, BaseSeed: 1, Point: PointK(4)}
	key := func(c Cell, version string) string { return c.CacheKey(version) }
	k0 := key(base, "v1")
	if k0 != key(base, "v1") {
		t.Fatal("CacheKey is not deterministic")
	}
	mutations := map[string]string{}
	{
		c := base
		c.Scenario = "other"
		mutations["scenario"] = key(c, "v1")
	}
	{
		c := base
		c.Family = graph.FamilyCycle
		mutations["family"] = key(c, "v1")
	}
	{
		c := base
		c.N = 64
		mutations["n"] = key(c, "v1")
	}
	{
		c := base
		c.BaseSeed = 2
		mutations["seed"] = key(c, "v1")
	}
	{
		c := base
		c.Point = PointK(8)
		mutations["point"] = key(c, "v1")
	}
	{
		c := base
		c.model = hybrid.Config{Variant: hybrid.VariantHybrid0}
		mutations["config"] = key(c, "v1")
	}
	mutations["version"] = key(base, "v2")
	for what, k := range mutations {
		if k == k0 {
			t.Errorf("changing %s did not change the cache key", what)
		}
	}
	// Index is scheduling metadata, not a coordinate.
	c := base
	c.Index = 99
	if key(c, "v1") != k0 {
		t.Error("changing Index changed the cache key")
	}
}

// TestSweepID pins the sweep-level content address: stable for equal
// requests, sensitive to each component.
func TestSweepID(t *testing.T) {
	fams := []graph.Family{graph.FamilyPath, graph.FamilyGrid2D}
	id := SweepID("v1", "table1", fams, 576, 1)
	if id != SweepID("v1", "table1", []graph.Family{graph.FamilyPath, graph.FamilyGrid2D}, 576, 1) {
		t.Fatal("SweepID is not deterministic")
	}
	if !strings.HasPrefix(id, "sw-") || len(id) != 3+16 {
		t.Fatalf("SweepID format %q", id)
	}
	for what, other := range map[string]string{
		"version":  SweepID("v2", "table1", fams, 576, 1),
		"scenario": SweepID("v1", "table2", fams, 576, 1),
		"families": SweepID("v1", "table1", fams[:1], 576, 1),
		"n":        SweepID("v1", "table1", fams, 128, 1),
		"seed":     SweepID("v1", "table1", fams, 576, 2),
	} {
		if other == id {
			t.Errorf("changing %s did not change the sweep id", what)
		}
	}
}

// TestRowCodecEmpty: cells contributing zero rows round-trip too.
func TestRowCodecEmpty(t *testing.T) {
	blob, err := encodeRows[floatRow](nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := decodeRows[floatRow](blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("decoded %d rows, want 0", len(rows))
	}
}

// TestCollectCacheMarkdownByteIdentical is the differential contract of
// DESIGN.md §7: rendering a cache-hit sweep must produce bytes equal to
// the cold-cache run.
func TestCollectCacheMarkdownByteIdentical(t *testing.T) {
	render := func(rows []floatRow) []byte {
		table := &Table{Name: "floats", Title: "Floats", Header: []string{"label", "v", "n"}}
		for _, r := range rows {
			table.Rows = append(table.Rows, []string{r.Label, fmt.Sprintf("%v", r.V), fmt.Sprintf("%d", r.N)})
		}
		var buf bytes.Buffer
		if err := WriteTable(&MarkdownSink{W: &buf}, table); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var runs atomic.Int64
	cache := newMapBlobStore()
	cold, err := Collect(&Runner{Workers: 4, Cache: cache}, floatScenario(&runs))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Collect(&Runner{Workers: 4, Cache: cache}, floatScenario(&runs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(cold), render(warm)) {
		t.Fatalf("cache-hit markdown differs from cold run:\ncold:\n%s\nwarm:\n%s", render(cold), render(warm))
	}
}
