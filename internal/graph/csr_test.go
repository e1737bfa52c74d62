package graph_test

// Tests of the build/read contract (Freeze on the first read, AddEdge
// guarded after it) and the differential suite of the CSR traversals
// against the independent sequential oracle (internal/oracle) across
// all 11 graph families.

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// TestAddEdgeAfterFreezeErrors is the regression test for the mutation
// guard: AddEdge on a frozen graph must fail with ErrFrozen and leave
// the graph untouched.
func TestAddEdgeAfterFreezeErrors(t *testing.T) {
	g := graph.Path(5)
	if err := g.AddEdge(0, 2, 1); err != nil {
		t.Fatalf("AddEdge before Freeze: %v", err)
	}
	if g.Frozen() {
		t.Fatal("graph frozen before Freeze")
	}
	g.Freeze()
	if !g.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	m := g.M()
	if err := g.AddEdge(1, 3, 1); err != graph.ErrFrozen {
		t.Fatalf("AddEdge after Freeze: err=%v, want ErrFrozen", err)
	}
	if g.M() != m {
		t.Fatalf("edge count changed by rejected AddEdge: %d -> %d", m, g.M())
	}
	if g.HasEdge(1, 3) {
		t.Fatal("rejected edge present")
	}
	// Freeze is idempotent.
	g.Freeze()
	if got := g.BFS(0)[4]; got != 3 {
		t.Fatalf("frozen BFS wrong: d(0,4)=%d, want 3", got)
	}
}

// TestAddEdgeInvalidatesDiameter pins the diameter memo across the
// build: the generators seed it on a graph that is not yet frozen, and
// Diameter returns a seed without freezing, so an AddEdge after the
// seed — or after a Diameter call — must clear it.
func TestAddEdgeInvalidatesDiameter(t *testing.T) {
	g := graph.Path(5)
	if err := g.AddEdge(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Diameter(), oracle.Diameter(g); got != want || got != 3 {
		t.Fatalf("Path(5)+{0,2}: Diameter()=%d, oracle %d, want 3", got, want)
	}

	g = graph.Path(5)
	if d := g.Diameter(); d != 4 {
		t.Fatalf("Path(5): Diameter()=%d, want 4", d)
	}
	if err := g.AddEdge(0, 4, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Diameter(), oracle.Diameter(g); got != want || got != 2 {
		t.Fatalf("Path(5)+{0,4}: Diameter()=%d, oracle %d, want 2", got, want)
	}
}

// TestBuildReturnsFrozen pins the generator contract: every family
// built through Build is frozen.
func TestBuildReturnsFrozen(t *testing.T) {
	for _, f := range graph.Families() {
		g, err := graph.Build(f, 40, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !g.Frozen() {
			t.Errorf("%s: Build did not freeze", f)
		}
		if err := g.AddEdge(0, g.N()-1, 1); err != graph.ErrFrozen {
			t.Errorf("%s: AddEdge on built graph: %v, want ErrFrozen", f, err)
		}
	}
}

// TestFirstReadFreezes pins the build/read contract: HasEdge answers
// from the build buffer without freezing, the first read of any kind
// freezes the graph exactly once (also when 8 readers race to it), the
// CSR rows keep AddEdge order, and AddEdge fails afterwards.
func TestFirstReadFreezes(t *testing.T) {
	edges := []graph.UndirectedEdge{{U: 0, V: 3, W: 5}, {U: 0, V: 1, W: 2}, {U: 2, V: 0, W: 7}, {U: 1, V: 2, W: 1}, {U: 3, V: 4, W: 1}}
	build := func() *graph.Graph {
		g := graph.New(5)
		for _, e := range edges {
			if g.HasEdge(e.U, e.V) {
				t.Fatalf("HasEdge(%d,%d) before AddEdge", e.U, e.V)
			}
			if err := g.AddEdge(e.U, e.V, e.W); err != nil {
				t.Fatal(err)
			}
			if !g.HasEdge(e.V, e.U) {
				t.Fatalf("HasEdge(%d,%d) false after AddEdge", e.V, e.U)
			}
		}
		if g.Frozen() {
			t.Fatal("HasEdge froze the graph")
		}
		return g
	}

	g := build()
	reads := []func() any{
		func() any { return g.Dijkstra(0) },
		func() any { return g.BFS(4) },
		func() any { return g.Ball(1, 2) },
		func() any { return g.BallProfiles(3) },
		func() any { to, w := g.Row(0); return [2]any{to, w} },
		func() any { return g.Edges() },
		func() any { return g.Connected() },
		func() any { return graph.EncodeCSR(g) },
	}
	got := make([]any, len(reads))
	var wg sync.WaitGroup
	for i, read := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = read()
		}()
	}
	wg.Wait()
	if !g.Frozen() {
		t.Fatal("graph not frozen after its first reads")
	}
	for i, read := range reads {
		if want := read(); !reflect.DeepEqual(got[i], want) {
			t.Errorf("concurrent first read %d = %v, want %v", i, got[i], want)
		}
	}
	if want := []int64{0, 2, 3, 5, 6}; !reflect.DeepEqual(got[0], want) {
		t.Errorf("Dijkstra(0) = %v, want %v", got[0], want)
	}
	to, w := g.Row(0)
	if !reflect.DeepEqual(to, []int32{3, 1, 2}) || !reflect.DeepEqual(w, []int64{5, 2, 7}) {
		t.Errorf("Row(0) = %v %v, want AddEdge order [3 1 2] [5 2 7]", to, w)
	}
	if err := g.AddEdge(1, 4, 1); !errors.Is(err, graph.ErrFrozen) {
		t.Errorf("AddEdge after a read: %v, want ErrFrozen", err)
	}
	if !g.HasEdge(2, 1) || g.HasEdge(1, 4) || g.M() != len(edges) {
		t.Error("frozen HasEdge/M disagree with the built edges")
	}

	// Derived graphs read their source, so both come back frozen.
	derived := map[string]func(*graph.Graph) *graph.Graph{
		"Reweight":   func(g *graph.Graph) *graph.Graph { return graph.RandomWeights(g, 9, rand.New(rand.NewSource(1))) },
		"Unweighted": (*graph.Graph).Unweighted,
		"Subgraph": func(g *graph.Graph) *graph.Graph {
			sub, _ := g.Subgraph([]bool{true, true, true, false, true})
			return sub
		},
	}
	for name, derive := range derived {
		src := build()
		if d := derive(src); !src.Frozen() || !d.Frozen() {
			t.Errorf("%s: source frozen %v, derived frozen %v; want both", name, src.Frozen(), d.Frozen())
		}
	}
}

// TestFrozenTraversalsMatchOracle is the graph-kernel differential
// suite: on every family in Families, two sizes, three seeds, the
// frozen CSR traversals must agree exactly with the independent
// sequential oracle.
func TestFrozenTraversalsMatchOracle(t *testing.T) {
	for _, f := range graph.Families() {
		for _, n := range []int{33, 65} {
			for seed := int64(1); seed <= 3; seed++ {
				g, err := graph.Build(f, n, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s/n=%d/seed=%d: %v", f, n, seed, err)
				}
				srcs := []int{0, g.N() - 1}

				for _, src := range srcs {
					want := oracle.BFS(g, src)
					if got := g.BFS(src); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/bfs: BFS(%d) differs from oracle (n=%d seed=%d)", f, src, n, seed)
					}
				}

				wg := graph.RandomWeights(g, 50, rand.New(rand.NewSource(seed)))
				for _, src := range srcs {
					want := oracle.Dijkstra(wg, src)
					if got := wg.Dijkstra(src); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/dijkstra: Dijkstra(%d) differs from oracle (n=%d seed=%d)", f, src, n, seed)
					}
				}

				ecc := oracle.Eccentricities(g)
				if got := g.Eccentricity(0); got != ecc[0] {
					t.Fatalf("%s/ecc: ecc(0)=%d, oracle %d (n=%d seed=%d)", f, got, ecc[0], n, seed)
				}
				if got, want := g.Diameter(), oracle.Diameter(g); got != want {
					t.Fatalf("%s/diam: diameter=%d, oracle %d (n=%d seed=%d)", f, got, want, n, seed)
				}

				// Hop-limited sandwich: d ≤ frontier-relaxed d^h ≤ oracle d^h
				// (the in-place frontier may shortcut extra hops within a
				// round, so it can be tighter than the strict d^h), exact at
				// h ≥ n-1.
				h := 3
				exact := oracle.Dijkstra(wg, 0)
				hopOracle := oracle.HopLimited(wg, 0, h)
				hopGot := wg.HopLimitedDistances(0, h)
				for v := range hopGot {
					if hopGot[v] < exact[v] || hopGot[v] > hopOracle[v] {
						t.Fatalf("%s/hop: node %d: d^%d=%d outside [%d,%d] (n=%d seed=%d)",
							f, v, h, hopGot[v], exact[v], hopOracle[v], n, seed)
					}
				}
				if got := wg.HopLimitedDistances(0, wg.N()-1); !reflect.DeepEqual(got, exact) {
					t.Fatalf("%s/hop-full: full-hop distances differ from exact (n=%d seed=%d)", f, n, seed)
				}

				// MultiSourceBFS distance = min over sources of oracle BFS.
				msDist, msNearest := g.MultiSourceBFS(srcs)
				per := make([][]int64, len(srcs))
				for i, s := range srcs {
					per[i] = oracle.BFS(g, s)
				}
				for v := range msDist {
					want := per[0][v]
					if per[1][v] < want {
						want = per[1][v]
					}
					if msDist[v] != want {
						t.Fatalf("%s/msbfs: dist(%d)=%d, oracle min %d (n=%d seed=%d)", f, v, msDist[v], want, n, seed)
					}
					if nr := msNearest[v]; nr < 0 || per[nr][v] != msDist[v] {
						t.Fatalf("%s/msbfs: nearest[%d]=%d inconsistent (n=%d seed=%d)", f, v, nr, n, seed)
					}
				}
			}
		}
	}
}
