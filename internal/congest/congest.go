// Package congest runs synchronous message-passing algorithms in the
// CONGEST marginal model of the HYBRID(λ, γ) family (Section 1.3:
// CONGEST = HYBRID₀(O(log n), 0)): one O(log n)-bit word per edge per
// round, no global mode.
//
// The paper imports two CONGEST constructions as black boxes — the
// [RG20] spanner (Lemma 6.1) and the [KX16] cut sparsifier (Lemma 6.4) —
// and simulates CONGEST rounds over skeleton edges in Theorem 8. This
// package provides the runner those simulations are grounded in, plus
// reference distributed algorithms (BFS, Bellman–Ford, flooding echo)
// whose message-level behaviour is fully engine-checked: every message
// traverses a real edge under the λ = 1 word cap.
package congest

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hybrid"
)

// Word is one O(log n)-bit message payload.
type Word int64

// Outbox collects the messages a node emits in one round.
type Outbox struct {
	msgs []outMsg
}

type outMsg struct {
	to int
	w  Word
}

// Send queues one word for neighbor `to` this round. A node may send at
// most one word per incident edge per round (λ = 1); violations surface
// as errors from Runner.Run.
func (o *Outbox) Send(to int, w Word) { o.msgs = append(o.msgs, outMsg{to, w}) }

// Node is a per-node CONGEST program: each round it receives the words
// delivered this round (from[i] pairs with word[i]) and fills its
// outbox. Returning done = true votes to terminate; the run ends when
// every node votes done in the same round.
type Node interface {
	Step(round int, from []int, words []Word, out *Outbox) (done bool)
}

// Runner drives a CONGEST algorithm over a network's local graph.
// Round state (outboxes, inboxes, the per-edge dedup map, the engine
// batch) is pooled on the Runner and reused — truncated or cleared, not
// reallocated — across rounds. The from/words slices handed to Step are
// valid only for the duration of that call; programs must copy anything
// they keep.
type Runner struct {
	net   *hybrid.Net
	nodes []Node

	// Workers shards the per-node Step calls of each round across a
	// worker pool (the sharded intra-cell round engine, DESIGN.md §14).
	// 0 selects automatically: graph.MaxKernelWorkers() from
	// parallelMinN nodes upward, one worker below. Outboxes are merged
	// and delivered in node order regardless of the setting, so rounds,
	// messages, errors and the engine audit are byte-identical at any
	// worker count. With more than one worker the node programs run
	// concurrently: each Step may touch only its own program's state
	// (the reference programs in this package all qualify).
	Workers int

	outboxes []Outbox
	inFrom   [][]int
	inWords  [][]Word
	batch    []hybrid.Msg
	payloads map[[2]int]Word
}

// parallelMinN is the auto-selection threshold of the sharded round
// engine: below it one worker avoids the goroutine round-trips.
const parallelMinN = 4096

// stepChunk is the node-range granularity workers claim per round.
const stepChunk = 64

// resolveWorkers applies the Workers policy for an n-node round.
func (r *Runner) resolveWorkers(n int) int {
	w := r.Workers
	if w <= 0 {
		if n < parallelMinN {
			return 1
		}
		w = graph.MaxKernelWorkers()
	}
	if chunks := (n + stepChunk - 1) / stepChunk; w > chunks {
		w = chunks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// NewRunner wraps net (which should be a CONGEST-mode network, e.g.
// hybrid.NewCONGEST; any network with a local mode works) with one
// program per node.
func NewRunner(net *hybrid.Net, nodes []Node) (*Runner, error) {
	if len(nodes) != net.N() {
		return nil, fmt.Errorf("congest: %d programs for %d nodes", len(nodes), net.N())
	}
	for v, nd := range nodes {
		if nd == nil {
			return nil, fmt.Errorf("congest: nil program at node %d", v)
		}
	}
	return &Runner{net: net, nodes: nodes}, nil
}

// Run executes rounds until every node votes done or maxRounds elapses,
// returning the number of rounds executed. Each round's messages are
// delivered through the engine (SendLocal), so the λ cap and adjacency
// are enforced; sending two words over one edge in a round is an error.
//
// With Workers > 1 (or auto-selected parallelism on large networks) the
// Step calls of each round shard across a persistent worker pool; the
// engine traffic — batches, rounds, audit — is byte-identical to the
// sequential schedule because outboxes merge in node order before the
// single SendLocal.
func (r *Runner) Run(phase string, maxRounds int) (int, error) {
	n := r.net.N()
	if r.inFrom == nil {
		r.inFrom = make([][]int, n)
		r.inWords = make([][]Word, n)
		r.outboxes = make([]Outbox, n)
		r.payloads = make(map[[2]int]Word, 64)
	} else {
		// A previous Run may have ended (timeout, error) right after the
		// delivery loop refilled the inboxes; a fresh Run starts empty.
		for v := 0; v < n; v++ {
			r.inFrom[v] = r.inFrom[v][:0]
			r.inWords[v] = r.inWords[v][:0]
		}
		r.batch = r.batch[:0]
	}
	if workers := r.resolveWorkers(n); workers > 1 {
		return r.runSharded(phase, maxRounds, n, workers)
	}
	for round := 0; round < maxRounds; round++ {
		allDone := true
		r.batch = r.batch[:0]
		clear(r.payloads)
		for v := 0; v < n; v++ {
			out := &r.outboxes[v]
			out.msgs = out.msgs[:0]
			done := r.nodes[v].Step(round, r.inFrom[v], r.inWords[v], out)
			if !done {
				allDone = false
			}
			for _, m := range out.msgs {
				key := [2]int{v, m.to}
				if _, dup := r.payloads[key]; dup {
					return round, fmt.Errorf("congest: phase %q round %d: node %d sent two words to %d", phase, round, v, m.to)
				}
				r.payloads[key] = m.w
				r.batch = append(r.batch, hybrid.Msg{From: v, To: m.to})
			}
			r.inFrom[v] = r.inFrom[v][:0]
			r.inWords[v] = r.inWords[v][:0]
		}
		if allDone && len(r.batch) == 0 {
			return round, nil
		}
		if err := r.deliver(phase, round); err != nil {
			return round, err
		}
	}
	return maxRounds, fmt.Errorf("congest: phase %q did not terminate within %d rounds", phase, maxRounds)
}

// deliver pushes the round's merged batch through the engine and
// refills the inboxes in batch order (deterministic, unlike map
// iteration). A silent round still advances time.
func (r *Runner) deliver(phase string, round int) error {
	if len(r.batch) > 0 {
		if _, err := r.net.SendLocal(phase, r.batch); err != nil {
			return err
		}
	} else {
		r.net.TickLocal(phase, 1)
	}
	for _, m := range r.batch {
		r.inFrom[m.To] = append(r.inFrom[m.To], m.From)
		r.inWords[m.To] = append(r.inWords[m.To], r.payloads[[2]int{m.From, m.To}])
	}
	return nil
}

// runSharded is the parallel round loop: a pool of persistent worker
// goroutines (spawned once per Run, woken by one channel token per
// round) claims fixed node chunks from an atomic cursor and runs the
// Step calls, writing each node's outbox and truncating its inboxes —
// state only the claiming worker touches. The main goroutine then
// merges outboxes into the engine batch in node order, so delivery,
// dedup errors and termination match the sequential schedule exactly,
// and rounds stay allocation-free in steady state (channel token, wait
// group, atomic cursor — no per-round goroutines or buffers).
func (r *Runner) runSharded(phase string, maxRounds, n, workers int) (int, error) {
	chunks := (n + stepChunk - 1) / stepChunk
	var cursor atomic.Int64
	var notDone atomic.Int32
	var wg sync.WaitGroup
	work := make(chan int)
	defer close(work)
	for w := 0; w < workers; w++ {
		go func() {
			for round := range work {
				local := int32(0)
				for {
					ci := int(cursor.Add(1)) - 1
					if ci >= chunks {
						break
					}
					lo := ci * stepChunk
					hi := lo + stepChunk
					if hi > n {
						hi = n
					}
					for v := lo; v < hi; v++ {
						out := &r.outboxes[v]
						out.msgs = out.msgs[:0]
						if !r.nodes[v].Step(round, r.inFrom[v], r.inWords[v], out) {
							local++
						}
						r.inFrom[v] = r.inFrom[v][:0]
						r.inWords[v] = r.inWords[v][:0]
					}
				}
				if local > 0 {
					notDone.Add(local)
				}
				wg.Done()
			}
		}()
	}
	for round := 0; round < maxRounds; round++ {
		r.batch = r.batch[:0]
		clear(r.payloads)
		cursor.Store(0)
		notDone.Store(0)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			work <- round
		}
		wg.Wait()
		for v := 0; v < n; v++ {
			for _, m := range r.outboxes[v].msgs {
				key := [2]int{v, m.to}
				if _, dup := r.payloads[key]; dup {
					return round, fmt.Errorf("congest: phase %q round %d: node %d sent two words to %d", phase, round, v, m.to)
				}
				r.payloads[key] = m.w
				r.batch = append(r.batch, hybrid.Msg{From: v, To: m.to})
			}
		}
		if notDone.Load() == 0 && len(r.batch) == 0 {
			return round, nil
		}
		if err := r.deliver(phase, round); err != nil {
			return round, err
		}
	}
	return maxRounds, fmt.Errorf("congest: phase %q did not terminate within %d rounds", phase, maxRounds)
}

// bfsNode is the textbook CONGEST BFS program. Nodes know their
// adjacency lists (standard CONGEST knowledge).
type bfsNode struct {
	id        int
	isRoot    bool
	dist      int64
	fresh     bool // discovered last round, must announce this round
	neighbors []int
}

func (b *bfsNode) Step(round int, from []int, words []Word, out *Outbox) bool {
	if round == 0 && b.isRoot {
		b.dist = 0
		b.fresh = true
	}
	for _, w := range words {
		if d := int64(w); b.dist < 0 || d+1 < b.dist {
			b.dist = d + 1
			b.fresh = true
		}
	}
	if b.fresh {
		b.fresh = false
		for _, u := range b.neighbors {
			out.Send(u, Word(b.dist))
		}
		return false
	}
	return true
}

// BFS runs the distributed BFS from src and returns the hop distances
// (engine-verified: every announcement crosses a real edge, one word per
// edge per round). The round count equals the eccentricity of src plus
// the final silent round.
func BFS(net *hybrid.Net, src int) ([]int64, int, error) {
	g := net.Graph()
	n := g.N()
	nodes := make([]Node, n)
	progs := make([]*bfsNode, n)
	for v := 0; v < n; v++ {
		p := &bfsNode{id: v, isRoot: v == src, dist: -1}
		to, _ := g.Row(v)
		p.neighbors = make([]int, len(to))
		for i, u := range to {
			p.neighbors[i] = int(u)
		}
		progs[v] = p
		nodes[v] = p
	}
	r, err := NewRunner(net, nodes)
	if err != nil {
		return nil, 0, err
	}
	rounds, err := r.Run("congest/bfs", 4*n+4)
	if err != nil {
		return nil, rounds, err
	}
	dist := make([]int64, n)
	for v, p := range progs {
		if p.dist < 0 {
			dist[v] = graph.Inf
		} else {
			dist[v] = p.dist
		}
	}
	return dist, rounds, nil
}

// bellmanFordNode relaxes weighted distances; weights ride with the
// program (each node knows its incident edge weights in CONGEST).
type bellmanFordNode struct {
	isRoot    bool
	dist      int64
	fresh     bool
	neighbors []int
	weights   []int64
}

func (b *bellmanFordNode) Step(round int, from []int, words []Word, out *Outbox) bool {
	if round == 0 && b.isRoot {
		b.dist = 0
		b.fresh = true
	}
	for i, w := range words {
		// Incoming word is the sender's distance; add our edge weight.
		wEdge := b.weightTo(from[i])
		if d := int64(w) + wEdge; b.dist < 0 || d < b.dist {
			b.dist = d
			b.fresh = true
		}
	}
	if b.fresh {
		b.fresh = false
		for _, u := range b.neighbors {
			out.Send(u, Word(b.dist))
		}
		return false
	}
	return true
}

func (b *bellmanFordNode) weightTo(u int) int64 {
	for i, v := range b.neighbors {
		if v == u {
			return b.weights[i]
		}
	}
	return graph.Inf
}

// BellmanFord runs the distributed weighted SSSP from src to quiescence,
// returning distances and rounds. Worst-case Θ(n) rounds on weighted
// graphs — the LOCAL/CONGEST cost the HYBRID model's global mode
// circumvents (Theorem 13).
func BellmanFord(net *hybrid.Net, src int) ([]int64, int, error) {
	g := net.Graph()
	n := g.N()
	nodes := make([]Node, n)
	progs := make([]*bellmanFordNode, n)
	for v := 0; v < n; v++ {
		p := &bellmanFordNode{isRoot: v == src, dist: -1}
		to, w := g.Row(v)
		p.neighbors = make([]int, len(to))
		for i, u := range to {
			p.neighbors[i] = int(u)
		}
		p.weights = w
		progs[v] = p
		nodes[v] = p
	}
	r, err := NewRunner(net, nodes)
	if err != nil {
		return nil, 0, err
	}
	rounds, err := r.Run("congest/bellmanford", 4*n*n+4)
	if err != nil {
		return nil, rounds, err
	}
	dist := make([]int64, n)
	for v, p := range progs {
		if p.dist < 0 {
			dist[v] = graph.Inf
		} else {
			dist[v] = p.dist
		}
	}
	return dist, rounds, nil
}
