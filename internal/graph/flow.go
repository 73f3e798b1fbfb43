package graph

import "fmt"

// FlowSolver computes unit-capacity max-flows on a fixed graph with
// reusable buffers, so that the defect process (which runs thousands of
// small flow queries per experiment step) does not thrash the allocator.
//
// The solver uses Dinic's algorithm. Edge capacities are 1; callers that
// need a multi-edge capacity add parallel edges. A query may supply extra
// temporary edges (used to attach virtual sinks for d-tuple connectivity)
// and a flow limit for early exit (connectivity is capped at d, so pushing
// beyond d units is wasted work).
type FlowSolver struct {
	g *Digraph
	// residual state, sized n nodes and m' = 2*(m+extra) directed arcs:
	// arc 2i is edge i forward, arc 2i+1 its reverse.
	head  []int32 // arc -> destination node
	next  []int32 // arc -> next arc index in adjacency list, -1 end
	first []int32 // node -> first arc index, -1 end
	cap   []int8  // arc -> residual capacity (0 or 1)
	level []int32
	iter  []int32
	queue []int32
	base  int // number of arcs belonging to the base graph
}

// NewFlowSolver prepares a solver for g. The graph must not gain nodes or
// edges afterwards; build a new solver per topology snapshot.
func NewFlowSolver(g *Digraph) *FlowSolver {
	fs := &FlowSolver{g: g}
	n, m := g.NumNodes(), g.NumEdges()
	fs.first = make([]int32, n)
	fs.level = make([]int32, n)
	fs.iter = make([]int32, n)
	fs.queue = make([]int32, 0, n)
	fs.head = make([]int32, 0, 2*m+16)
	fs.next = make([]int32, 0, 2*m+16)
	fs.cap = make([]int8, 0, 2*m+16)
	for i := range fs.first {
		fs.first[i] = -1
	}
	for _, e := range g.edges {
		fs.addArcPair(e.From, e.To)
	}
	fs.base = len(fs.head)
	return fs
}

func (fs *FlowSolver) addArcPair(u, v int) {
	fs.head = append(fs.head, int32(v), int32(u))
	fs.next = append(fs.next, fs.first[u], fs.first[v])
	fs.cap = append(fs.cap, 1, 0)
	fs.first[u] = int32(len(fs.head) - 2)
	fs.first[v] = int32(len(fs.head) - 1)
}

// removeExtra rolls the arc arrays back to the base graph. Extra arcs were
// appended last and each adjacency list is a stack, so popping them off the
// front of the affected lists restores the original heads.
func (fs *FlowSolver) removeExtra(extra []Edge) {
	// Arcs were pushed in order; pop in reverse.
	for i := len(extra) - 1; i >= 0; i-- {
		e := extra[i]
		// Reverse arc was pushed second: it heads fs.first[e.To].
		fs.first[e.To] = fs.next[fs.first[e.To]]
		fs.first[e.From] = fs.next[fs.first[e.From]]
	}
	fs.head = fs.head[:fs.base]
	fs.next = fs.next[:fs.base]
	fs.cap = fs.cap[:fs.base]
}

// reset restores all residual capacities to their initial values.
func (fs *FlowSolver) reset() {
	for i := 0; i < len(fs.cap); i += 2 {
		fs.cap[i] = 1
		fs.cap[i+1] = 0
	}
}

// MaxFlow returns the s-t max flow, stopping early once limit is reached
// (pass a negative limit for no cap). extra lists temporary unit edges
// appended for this query only, e.g. thread-bottom -> virtual-sink edges.
func (fs *FlowSolver) MaxFlow(s, t int, limit int, extra ...Edge) int {
	n := fs.g.NumNodes()
	if s < 0 || s >= n || t < 0 || t >= n {
		panic(fmt.Sprintf("graph: flow endpoints (%d,%d) out of range [0,%d)", s, t, n))
	}
	if s == t {
		return 0
	}
	for _, e := range extra {
		fs.addArcPair(e.From, e.To)
	}
	fs.reset()
	flow := 0
	for limit < 0 || flow < limit {
		if !fs.bfs(s, t) {
			break
		}
		copy(fs.iter, fs.first)
		for limit < 0 || flow < limit {
			if fs.dfs(s, t) == 0 {
				break
			}
			flow++
		}
	}
	if len(extra) > 0 {
		fs.removeExtra(extra)
	}
	return flow
}

// bfs builds the level graph; returns false when t is unreachable.
func (fs *FlowSolver) bfs(s, t int) bool {
	for i := range fs.level {
		fs.level[i] = -1
	}
	fs.level[s] = 0
	fs.queue = fs.queue[:0]
	fs.queue = append(fs.queue, int32(s))
	for qi := 0; qi < len(fs.queue); qi++ {
		u := fs.queue[qi]
		for a := fs.first[u]; a >= 0; a = fs.next[a] {
			if fs.cap[a] == 0 {
				continue
			}
			v := fs.head[a]
			if fs.level[v] < 0 {
				fs.level[v] = fs.level[u] + 1
				fs.queue = append(fs.queue, v)
			}
		}
	}
	return fs.level[t] >= 0
}

// dfs pushes one unit of flow along the level graph; returns the amount
// pushed (0 or 1).
func (fs *FlowSolver) dfs(u, t int) int {
	if u == t {
		return 1
	}
	for ; fs.iter[u] >= 0; fs.iter[u] = fs.next[fs.iter[u]] {
		a := fs.iter[u]
		v := fs.head[a]
		if fs.cap[a] == 0 || fs.level[v] != fs.level[u]+1 {
			continue
		}
		if fs.dfs(int(v), t) == 1 {
			fs.cap[a]--
			fs.cap[a^1]++
			return 1
		}
	}
	return 0
}

// MinCutSide computes an s-t max flow and returns the source side of a
// minimum s-t cut as a boolean mask, along with the cut value. extra edges
// are included in the network for this query only.
func (fs *FlowSolver) MinCutSide(s, t int, extra ...Edge) ([]bool, int) {
	for _, e := range extra {
		fs.addArcPair(e.From, e.To)
	}
	fs.reset()
	flow := 0
	for fs.bfs(s, t) {
		copy(fs.iter, fs.first)
		for fs.dfs(s, t) == 1 {
			flow++
		}
	}
	// After the final failed BFS, level >= 0 marks the source side of a
	// min cut in the residual network.
	side := make([]bool, fs.g.NumNodes())
	for i, l := range fs.level {
		side[i] = l >= 0
	}
	if len(extra) > 0 {
		fs.removeExtra(extra)
	}
	return side, flow
}

// ConnectivityAll returns λ(s, v) for every node v (with λ(s,s) = 0 by
// convention) capped at limit when limit >= 0.
func (fs *FlowSolver) ConnectivityAll(s, limit int) []int {
	out := make([]int, fs.g.NumNodes())
	for v := range out {
		if v == s {
			continue
		}
		out[v] = fs.MaxFlow(s, v, limit)
	}
	return out
}
