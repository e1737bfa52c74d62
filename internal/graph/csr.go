package graph

import "errors"

// ErrFrozen is returned by AddEdge once the graph is frozen: the CSR
// arrays are the graph, and the build buffer behind them is gone.
var ErrFrozen = errors.New("graph: graph is frozen (AddEdge after Freeze)")

// csr is the compressed-sparse-row form every read runs on. The
// half-edges leaving node v occupy positions rowStart[v]..rowStart[v+1]
// of the flat to/w arrays, in exactly the order AddEdge inserted them.
type csr struct {
	rowStart []int32 // len n+1, monotone; rowStart[n] == 2m
	to       []int32 // len 2m, neighbor of each half-edge
	w        []int64 // len 2m, weight of each half-edge
}

// Freeze compacts the build buffer into the CSR arrays and releases
// it. It runs once — here or on the graph's first read, whichever comes
// first — and is safe to call from concurrent readers; it returns g for
// chaining. After Freeze the graph is immutable: AddEdge returns
// ErrFrozen. Generators built through Build return frozen graphs.
func (g *Graph) Freeze() *Graph {
	g.freeze.Do(func() {
		n := g.n
		c := &csr{
			rowStart: make([]int32, n+1),
			to:       make([]int32, 2*g.m),
			w:        make([]int64, 2*g.m),
		}
		pos := int32(0)
		for v := 0; v < n; v++ {
			c.rowStart[v] = pos
			for _, e := range g.adj[v] {
				c.to[pos] = e.To
				c.w[pos] = e.W
				pos++
			}
		}
		c.rowStart[n] = pos
		g.csr = c
		g.adj = nil
	})
	return g
}

// rows returns the CSR arrays, freezing the graph on its first read.
func (g *Graph) rows() *csr { return g.Freeze().csr }

// Frozen reports whether the graph has been frozen.
func (g *Graph) Frozen() bool { return g.csr != nil }

// Row returns the edges of v as flat neighbor/weight slices, in the
// order AddEdge inserted them. The slices alias the graph's arrays and
// must not be modified.
func (g *Graph) Row(v int) (to []int32, w []int64) {
	c := g.rows()
	lo, hi := c.rowStart[v], c.rowStart[v+1]
	return c.to[lo:hi], c.w[lo:hi]
}
