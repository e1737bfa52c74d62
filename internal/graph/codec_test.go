package graph_test

// The differential suite for the CSR codec (satellite of DESIGN.md §9):
// every built-in family × size × seed must round-trip through
// EncodeCSR/DecodeCSR into a frozen graph that re-encodes
// byte-identically, matches a freshly rebuilt instance byte for byte,
// and agrees with the independent internal/oracle traversals.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// buildFamily constructs one deterministic instance; the rng only
// matters for the randomized families.
func buildFamily(t *testing.T, fam graph.Family, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.Build(fam, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Build(%s, %d): %v", fam, n, err)
	}
	return g
}

func TestCodecRoundTripDifferential(t *testing.T) {
	for _, fam := range graph.Families() {
		for _, n := range []int{32, 96} {
			for seed := int64(1); seed <= 3; seed++ {
				g := buildFamily(t, fam, n, seed)
				blob := graph.EncodeCSR(g)

				// Byte-identical to a rebuilt instance: the codec output
				// is a pure function of (family, n, seed).
				rebuilt := graph.EncodeCSR(buildFamily(t, fam, n, seed))
				if !bytes.Equal(blob, rebuilt) {
					t.Fatalf("%s/%d/%d: rebuilt instance encodes differently", fam, n, seed)
				}

				dec, err := graph.DecodeCSR(blob)
				if err != nil {
					t.Fatalf("%s/%d/%d: DecodeCSR: %v", fam, n, seed, err)
				}
				if !dec.Frozen() {
					t.Fatalf("%s/%d/%d: decoded graph is not frozen", fam, n, seed)
				}
				if err := dec.AddEdge(0, 1, 1); err != graph.ErrFrozen {
					t.Fatalf("%s/%d/%d: AddEdge on decoded graph = %v, want ErrFrozen", fam, n, seed, err)
				}
				if dec.N() != g.N() || dec.M() != g.M() {
					t.Fatalf("%s/%d/%d: decoded shape %d/%d, want %d/%d", fam, n, seed, dec.N(), dec.M(), g.N(), g.M())
				}

				// Re-encoding the decoded graph must reproduce the blob.
				if !bytes.Equal(blob, graph.EncodeCSR(dec)) {
					t.Fatalf("%s/%d/%d: decoded graph re-encodes differently", fam, n, seed)
				}
				if h1, h2 := graph.CSRHash(g), graph.CSRHash(dec); h1 != h2 {
					t.Fatalf("%s/%d/%d: content hash changed across round-trip: %s vs %s", fam, n, seed, h1, h2)
				}

				// The decoded adjacency must match the original edge list
				// exactly (order included).
				if len(dec.Edges()) != len(g.Edges()) {
					t.Fatalf("%s/%d/%d: edge lists differ in length", fam, n, seed)
				}
				for i, e := range g.Edges() {
					if dec.Edges()[i] != e {
						t.Fatalf("%s/%d/%d: edge %d = %+v, want %+v", fam, n, seed, i, dec.Edges()[i], e)
					}
				}

				// Differential traversals: the decoded graph's frozen hot
				// paths must agree with the oracle run on the original.
				for _, src := range []int{0, g.N() / 2, g.N() - 1} {
					wantBFS := oracle.BFS(g, src)
					gotBFS := dec.BFS(src)
					for v := range wantBFS {
						if gotBFS[v] != wantBFS[v] {
							t.Fatalf("%s/%d/%d: BFS(%d)[%d] = %d, oracle %d", fam, n, seed, src, v, gotBFS[v], wantBFS[v])
						}
					}
					wantD := oracle.Dijkstra(g, src)
					gotD := dec.Dijkstra(src)
					for v := range wantD {
						if gotD[v] != wantD[v] {
							t.Fatalf("%s/%d/%d: Dijkstra(%d)[%d] = %d, oracle %d", fam, n, seed, src, v, gotD[v], wantD[v])
						}
					}
				}
				if want, got := oracle.Diameter(g), dec.Diameter(); want != got {
					t.Fatalf("%s/%d/%d: Diameter = %d, oracle %d", fam, n, seed, got, want)
				}
			}
		}
	}
}

// TestCodecWeightedRoundTrip covers non-unit weights (the families are
// all unweighted, so reweight one explicitly).
func TestCodecWeightedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomWeights(buildFamily(t, graph.FamilyGrid2D, 64, 1), 1000, rng)
	blob := graph.EncodeCSR(g)
	dec, err := graph.DecodeCSR(blob)
	if err != nil {
		t.Fatal(err)
	}
	src := 0
	want := oracle.Dijkstra(g, src)
	got := dec.Dijkstra(src)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("weighted Dijkstra[%d] = %d, oracle %d", v, got[v], want[v])
		}
	}
	if !bytes.Equal(blob, graph.EncodeCSR(dec)) {
		t.Fatal("weighted graph re-encodes differently")
	}
}

// TestDecodeRejectsCorruption: structured corruption of a valid blob
// must fail loudly, never produce an invariant-violating graph.
func TestDecodeRejectsCorruption(t *testing.T) {
	blob := graph.EncodeCSR(buildFamily(t, graph.FamilyCycle, 16, 1))
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"empty":        {},
		"short header": blob[:10],
		"bad magic":    corrupt(func(b []byte) { b[0] = 'X' }),
		"bad version":  corrupt(func(b []byte) { b[4] = 99 }),
		"truncated":    blob[:len(blob)-3],
		"padded":       append(append([]byte(nil), blob...), 0),
		"huge n":       corrupt(func(b []byte) { b[12] = 0xff }),
		// rowStart[0] lives right after the header.
		"bad offsets": corrupt(func(b []byte) { b[24] = 1 }),
		// First endpoint: point node 0's first neighbor at itself.
		"self-loop": corrupt(func(b []byte) {
			copy(b[24+4*17:], []byte{0, 0, 0, 0})
		}),
	}
	for name, data := range cases {
		if _, err := graph.DecodeCSR(data); err == nil {
			t.Errorf("%s: DecodeCSR accepted corrupt input", name)
		}
	}
}
