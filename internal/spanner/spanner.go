// Package spanner computes multiplicative graph spanners, the
// sparsification tool behind the paper's weighted APSP algorithms
// (Theorem 7 and Theorem 8).
//
// The paper cites the deterministic eÕ(1)-round CONGEST construction of
// [RG20, Corollary 3.16] (Lemma 6.1), producing a (2k−1)-spanner with
// O(k·n^{1+1/k}·log n) edges. Per the substitution rule the library uses
// the classical greedy spanner — which satisfies the same stretch bound
// and the stronger size bound O(n^{1+1/k}) — and charges the cited eÕ(1)
// rounds through Distributed.
package spanner

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// Compute returns the greedy (2k-1)-spanner of g: edges are scanned in
// non-decreasing weight order and kept iff the spanner distance between
// the endpoints currently exceeds (2k-1)·w. The result has stretch at
// most 2k-1 and O(n^{1+1/k}) edges.
func Compute(g *graph.Graph, k int) (*graph.Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("spanner: k=%d < 1", k)
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].W != edges[j].W {
			return edges[i].W < edges[j].W
		}
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	h := graph.New(g.N())
	// The greedy checks read the spanner while it grows; reading h
	// itself would freeze it, so they run on this adjacency mirror.
	adj := make([][]graph.Edge, g.N())
	stretch := int64(2*k - 1)
	for _, e := range edges {
		limit := stretch * e.W
		if boundedDistanceExceeds(adj, e.U, e.V, limit) {
			if err := h.AddEdge(e.U, e.V, e.W); err != nil {
				return nil, err
			}
			adj[e.U] = append(adj[e.U], graph.Edge{To: int32(e.V), W: e.W})
			adj[e.V] = append(adj[e.V], graph.Edge{To: int32(e.U), W: e.W})
		}
	}
	return h.Freeze(), nil
}

// boundedDistanceExceeds reports whether d_h(u,v) > limit on the
// spanner's adjacency lists, using a Dijkstra that abandons paths
// longer than limit.
func boundedDistanceExceeds(adj [][]graph.Edge, u, v int, limit int64) bool {
	if u == v {
		return false
	}
	dist := map[int]int64{u: 0}
	// Small local heap: (dist, node) pairs as packed int64 won't fit
	// weights; use slices.
	type item struct {
		d int64
		v int
	}
	pq := []item{{0, u}}
	pop := func() item {
		best := 0
		for i := 1; i < len(pq); i++ {
			if pq[i].d < pq[best].d {
				best = i
			}
		}
		it := pq[best]
		pq[best] = pq[len(pq)-1]
		pq = pq[:len(pq)-1]
		return it
	}
	for len(pq) > 0 {
		it := pop()
		if d, ok := dist[it.v]; ok && it.d > d {
			continue
		}
		if it.v == v {
			return false
		}
		for _, e := range adj[it.v] {
			nd := it.d + e.W
			if nd > limit {
				continue
			}
			if d, ok := dist[int(e.To)]; !ok || nd < d {
				dist[int(e.To)] = nd
				pq = append(pq, item{nd, int(e.To)})
			}
		}
	}
	return true
}

// Distributed computes the spanner and charges the cited [RG20] eÕ(1)
// CONGEST rounds (⌈log n⌉²) on the network.
func Distributed(net *hybrid.Net, k int) (*graph.Graph, error) {
	h, err := Compute(net.Graph(), k)
	if err != nil {
		return nil, err
	}
	plog := net.PLog()
	net.Charge("spanner/rg20", plog*plog)
	return h, nil
}

// VerifyStretch checks d_h(u,v) ≤ stretch·d_g(u,v) for all pairs by
// sampling sources (all of them if samples ≤ 0). Returns an error naming
// the first violated pair. Intended for tests.
func VerifyStretch(g, h *graph.Graph, stretch int64, samples int) error {
	n := g.N()
	if h.N() != n {
		return fmt.Errorf("spanner: node count mismatch %d vs %d", h.N(), n)
	}
	step := 1
	if samples > 0 && n > samples {
		step = n / samples
	}
	for u := 0; u < n; u += step {
		dg := g.Dijkstra(u)
		dh := h.Dijkstra(u)
		for v := 0; v < n; v++ {
			if dg[v] >= graph.Inf {
				continue
			}
			if dh[v] > stretch*dg[v] {
				return fmt.Errorf("spanner: stretch violated at (%d,%d): %d > %d·%d", u, v, dh[v], stretch, dg[v])
			}
		}
	}
	return nil
}
