// Package graph provides the directed-graph algorithms the analysis plane
// needs: unit-capacity max-flow (edge connectivity), BFS depths, and
// Edmonds' edge-disjoint arborescence packing.
//
// The paper's quantities are all graph-theoretic: a node's achievable
// broadcast rate equals its edge connectivity from the server (network
// coding theorem, §4), the defect B^t of a d-tuple of hanging threads is a
// min-cut to a virtual sink, and the §1 "theoretical but impractical"
// baseline is Edmonds' packing of d edge-disjoint spanning arborescences.
package graph

import (
	"errors"
	"fmt"
)

// Edge is a directed edge u -> v.
type Edge struct {
	From int
	To   int
}

// Digraph is a directed multigraph on nodes 0..N-1 with unit-capacity
// edges. It is append-only: nodes and edges can be added, never removed
// (callers rebuild snapshots instead; topology snapshots are cheap
// relative to the flow computations run on them).
type Digraph struct {
	n     int
	edges []Edge
	out   [][]int32 // node -> indices into edges
	in    [][]int32
}

// NewDigraph returns a graph with n nodes and no edges.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Digraph{n: n, out: make([][]int32, n), in: make([][]int32, n)}
}

// AddNode appends a node and returns its index.
func (g *Digraph) AddNode() int {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.n++
	return g.n - 1
}

// AddEdge appends a unit-capacity edge u -> v and returns its index.
// Parallel edges are allowed (two threads can connect the same node pair);
// self-loops are rejected.
func (g *Digraph) AddEdge(u, v int) (int, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return 0, fmt.Errorf("graph: self-loop at %d", u)
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{From: u, To: v})
	g.out[u] = append(g.out[u], int32(id))
	g.in[v] = append(g.in[v], int32(id))
	return id, nil
}

// NumNodes returns the node count.
func (g *Digraph) NumNodes() int { return g.n }

// NumEdges returns the edge count.
func (g *Digraph) NumEdges() int { return len(g.edges) }

// Edge returns edge id.
func (g *Digraph) Edge(id int) Edge { return g.edges[id] }

// OutDegree returns the out-degree of u.
func (g *Digraph) OutDegree(u int) int { return len(g.out[u]) }

// InDegree returns the in-degree of u.
func (g *Digraph) InDegree(u int) int { return len(g.in[u]) }

// OutEdges returns the edge ids leaving u. The slice aliases internal
// state; callers must not modify it.
func (g *Digraph) OutEdges(u int) []int32 { return g.out[u] }

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := NewDigraph(g.n)
	c.edges = append([]Edge(nil), g.edges...)
	for u := 0; u < g.n; u++ {
		c.out[u] = append([]int32(nil), g.out[u]...)
		c.in[u] = append([]int32(nil), g.in[u]...)
	}
	return c
}

// Depths returns BFS hop distances from s; unreachable nodes get -1.
// It is the delay metric of §6 (each overlay hop adds one unit of delay).
func (g *Digraph) Depths(s int) []int {
	if s < 0 || s >= g.n {
		panic(fmt.Sprintf("graph: source %d out of range", s))
	}
	depth := make([]int, g.n)
	for i := range depth {
		depth[i] = -1
	}
	depth[s] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, s)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, eid := range g.out[u] {
			v := g.edges[eid].To
			if depth[v] < 0 {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return depth
}

// Reachable returns the set of nodes reachable from s as a boolean mask.
func (g *Digraph) Reachable(s int) []bool {
	d := g.Depths(s)
	mask := make([]bool, g.n)
	for i, x := range d {
		mask[i] = x >= 0
	}
	return mask
}

// ErrNotConnected is returned by arborescence packing when the required
// connectivity is missing.
var ErrNotConnected = errors.New("graph: insufficient connectivity from root")
