// Package core implements the paper's primary contribution: the
// "curtain-rod" scheme for building and maintaining a peer-to-peer
// broadcast overlay (§3), together with the §5 extensions (random row
// insertion against adversaries, congestion degree changes, heterogeneous
// degrees).
//
// The server maintains a matrix M with one column per thread (k unit
// streams hanging from the server) and one row per node, containing d ones
// marking the threads that node clipped together. The network topology is
// fully determined by M: there is an edge from node i to node j on thread
// c when rows i and j both have a one in column c and no intervening row
// does. New rows are appended at the bottom (or, in random-insert mode,
// spliced in at a uniformly random position), a graceful leave deletes the
// row, and the repair procedure for a failed node performs the same
// deletion on the node's behalf.
//
// Curtain is the server-side authority's data structure; it is purely
// topological. The data plane (network-coded streams flowing along the
// threads) lives in internal/rlnc and the protocol layer; the analysis
// plane (connectivity, defects) consumes Snapshot().
//
// Internally the matrix is fully indexed (see index.go): the row order is
// an order-statistic treap and each thread's occupancy is a treap ordered
// by row labels, so hello/good-bye/repair and the §5 degree changes cost
// O(d·log N) instead of the naive O(N·d) slice surgery. The paper's
// randomness contract is untouched: the caller's rng is consumed in
// exactly the same sequence as the original linear implementation (the
// differential tests in curtain_diff_test.go pin this).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"ncast/internal/graph"
)

// NodeID identifies an overlay participant. The server is ServerID; client
// nodes get strictly positive ids, never reused.
type NodeID uint64

// ServerID is the NodeID of the broadcast server (the curtain rod).
const ServerID NodeID = 0

// InsertMode selects where a joining node's row is placed in M.
type InsertMode int

const (
	// InsertAppend places new rows at the bottom of M (§3): later nodes
	// receive streams from earlier nodes.
	InsertAppend InsertMode = iota + 1
	// InsertRandom splices new rows at a uniformly random position (§5),
	// which makes coordinated adversarial arrivals equivalent to random
	// failures.
	InsertRandom
)

// Common errors returned by Curtain operations.
var (
	// ErrUnknownNode is returned when an operation names an id not in M.
	ErrUnknownNode = errors.New("core: unknown node")
	// ErrDegree is returned for invalid degree transitions or values.
	ErrDegree = errors.New("core: invalid degree")
	// ErrNodeFailed is returned when an operation requires a working node.
	ErrNodeFailed = errors.New("core: node is failed")
	// ErrNodeWorking is returned when an operation requires a failed node.
	ErrNodeWorking = errors.New("core: node is not failed")
)

type row struct {
	id      NodeID
	threads []int    // sorted, distinct thread indices; len == degree
	slots   []*tnode // slots[i] is this row's clip in thread threads[i]'s treap
	failed  bool
	on      *onode // handle into the global row-order treap
	pos     int    // scratch row index, valid only during Snapshot/walks
}

// Curtain is the server-side overlay state (the matrix M plus failure
// tags). It is not safe for concurrent use; the protocol layer serialises
// access.
type Curtain struct {
	k      int
	d      int
	mode   InsertMode
	rng    *rand.Rand
	list   olist   // global row order
	occ    []tlist // per-thread occupancy, in row order
	index  map[NodeID]*row
	failed int // count of failure-tagged rows
	nextID NodeID
	// freeRows recycles removed rows (and their thread/slot storage) so
	// steady-state churn — hello balancing good-bye/repair — allocates
	// nothing and never pressures the collector at million-row scale.
	// The treaps pool their nodes the same way (olist.free, tlist.free).
	freeRows []*row
}

// Option configures a Curtain.
type Option func(*Curtain)

// WithInsertMode selects append (default) or random row insertion.
func WithInsertMode(m InsertMode) Option {
	return func(c *Curtain) { c.mode = m }
}

// New creates an empty curtain with k threads and default node degree d.
// The paper's analysis assumes d >= 2 and k >= c·d² for a constant c;
// New only enforces the structural requirement 1 <= d <= k and leaves the
// analytic regime to callers (the chain baseline legitimately uses d = 1).
// rng drives all randomness (thread selection, insert positions) and must
// not be shared concurrently.
func New(k, d int, rng *rand.Rand, opts ...Option) (*Curtain, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k = %d, want > 0", ErrDegree, k)
	}
	if d < 1 || d > k {
		return nil, fmt.Errorf("%w: d = %d, want in [1, k=%d]", ErrDegree, d, k)
	}
	if rng == nil {
		return nil, errors.New("core: nil rng")
	}
	c := &Curtain{
		k:      k,
		d:      d,
		mode:   InsertAppend,
		rng:    rng,
		occ:    make([]tlist, k),
		index:  make(map[NodeID]*row),
		nextID: 1,
	}
	for _, o := range opts {
		o(c)
	}
	if c.mode != InsertAppend && c.mode != InsertRandom {
		return nil, fmt.Errorf("core: invalid insert mode %d", c.mode)
	}
	return c, nil
}

// K returns the number of server threads.
func (c *Curtain) K() int { return c.k }

// D returns the default node degree.
func (c *Curtain) D() int { return c.d }

// Mode returns the insert mode.
func (c *Curtain) Mode() InsertMode { return c.mode }

// NumNodes returns the number of rows in M (working + failed).
func (c *Curtain) NumNodes() int { return c.list.len() }

// NumFailed returns the number of failure-tagged rows.
func (c *Curtain) NumFailed() int { return c.failed }

// Contains reports whether id currently has a row in M.
func (c *Curtain) Contains(id NodeID) bool {
	_, ok := c.index[id]
	return ok
}

// IsFailed reports whether id is failure-tagged. Unknown ids report false.
func (c *Curtain) IsFailed(id NodeID) bool {
	r, ok := c.index[id]
	return ok && r.failed
}

// Degree returns the current degree of id, or an error for unknown ids.
func (c *Curtain) Degree(id NodeID) (int, error) {
	r, ok := c.index[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return len(r.threads), nil
}

// Threads returns a copy of the thread indices id is clipped to.
func (c *Curtain) Threads(id NodeID) ([]int, error) {
	r, ok := c.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return append([]int(nil), r.threads...), nil
}

// Nodes returns all node ids in row order (top of the curtain first).
func (c *Curtain) Nodes() []NodeID {
	out := make([]NodeID, 0, c.list.len())
	c.list.inorder(func(x *onode) {
		out = append(out, x.r.id)
	})
	return out
}

// Join adds a working node with the default degree (the hello protocol)
// and returns its id.
func (c *Curtain) Join() NodeID {
	id, err := c.join(c.d, false)
	if err != nil {
		panic(err) // default degree is validated at construction
	}
	return id
}

// JoinDegree adds a working node with an explicit degree (heterogeneous
// bandwidths, §5).
func (c *Curtain) JoinDegree(d int) (NodeID, error) {
	return c.join(d, false)
}

// JoinTagged adds a node pre-tagged as failed or working. The analysis of
// §4 interchanges the order of joining and failing — "the node tosses a
// coin before joining" — and JoinTagged is that coin toss made explicit
// for the experiment harness.
func (c *Curtain) JoinTagged(failed bool) NodeID {
	id, err := c.join(c.d, failed)
	if err != nil {
		panic(err)
	}
	return id
}

func (c *Curtain) join(d int, failed bool) (NodeID, error) {
	if d < 1 || d > c.k {
		return 0, fmt.Errorf("%w: join degree %d, want in [1, k=%d]", ErrDegree, d, c.k)
	}
	var r *row
	if n := len(c.freeRows); n > 0 {
		r = c.freeRows[n-1]
		c.freeRows[n-1] = nil
		c.freeRows = c.freeRows[:n-1]
	} else {
		r = &row{}
	}
	r.id = c.nextID
	r.threads = sampleDistinctInto(c.rng, c.k, d, r.threads)
	r.failed = failed
	c.nextID++
	pos := c.list.len()
	if c.mode == InsertRandom {
		pos = c.rng.Intn(c.list.len() + 1)
	}
	c.insertRow(r, pos)
	c.index[r.id] = r
	if failed {
		c.failed++
	}
	return r.id, nil
}

// Leave removes a working node gracefully (the good-bye protocol): its row
// is deleted, which matches each of its children to one of its parents
// along every thread.
func (c *Curtain) Leave(id NodeID) error {
	r, ok := c.index[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if r.failed {
		return fmt.Errorf("%w: %d (use Repair)", ErrNodeFailed, id)
	}
	c.removeRow(r)
	return nil
}

// Fail tags a node as failed (a non-ergodic failure or the start of an
// ergodic outage). The row remains in M — the failed node still occupies
// its slots and blocks its threads — until Repair or Recover.
func (c *Curtain) Fail(id NodeID) error {
	r, ok := c.index[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if r.failed {
		return fmt.Errorf("%w: %d", ErrNodeFailed, id)
	}
	r.failed = true
	c.failed++
	return nil
}

// Recover clears a failure tag (the end of an ergodic outage such as
// transient congestion).
func (c *Curtain) Recover(id NodeID) error {
	r, ok := c.index[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if !r.failed {
		return fmt.Errorf("%w: %d", ErrNodeWorking, id)
	}
	r.failed = false
	c.failed--
	return nil
}

// Repair removes a failed node's row (the server-side repair procedure:
// the failed node's parents are redirected to its children, exactly as in
// a graceful leave performed on the node's behalf).
func (c *Curtain) Repair(id NodeID) error {
	r, ok := c.index[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if !r.failed {
		return fmt.Errorf("%w: %d (use Leave)", ErrNodeWorking, id)
	}
	c.removeRow(r)
	return nil
}

// ReduceDegree handles congestion (§5): the node picks one of its threads
// at random and joins that parent and child directly, dropping its own
// degree by one. A node cannot drop below degree 1. It returns the thread
// index that was dropped, so the control plane can redirect its streams.
func (c *Curtain) ReduceDegree(id NodeID) (int, error) {
	r, ok := c.index[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if len(r.threads) <= 1 {
		return 0, fmt.Errorf("%w: node %d already at degree 1", ErrDegree, id)
	}
	i := c.rng.Intn(len(r.threads))
	t := r.threads[i]
	c.occ[t].remove(r.slots[i])
	r.threads = append(r.threads[:i], r.threads[i+1:]...)
	r.slots = append(r.slots[:i], r.slots[i+1:]...)
	return t, nil
}

// IncreaseDegree re-grows a previously reduced node (§5): the server turns
// one of the zeroes in the node's row into a one at random. It returns the
// thread index gained, so the control plane can splice the node in.
func (c *Curtain) IncreaseDegree(id NodeID) (int, error) {
	r, ok := c.index[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if len(r.threads) >= c.k {
		return 0, fmt.Errorf("%w: node %d already on all %d threads", ErrDegree, id, c.k)
	}
	// Pick a uniform random thread the node is not on.
	have := make(map[int]bool, len(r.threads))
	for _, t := range r.threads {
		have[t] = true
	}
	pick := c.rng.Intn(c.k - len(r.threads))
	for t := 0; t < c.k; t++ {
		if have[t] {
			continue
		}
		if pick == 0 {
			i := sort.SearchInts(r.threads, t)
			r.threads = append(r.threads, 0)
			copy(r.threads[i+1:], r.threads[i:])
			r.threads[i] = t
			slot := c.occ[t].insert(r, c.list.nextPrio())
			r.slots = append(r.slots, nil)
			copy(r.slots[i+1:], r.slots[i:])
			r.slots[i] = slot
			return t, nil
		}
		pick--
	}
	panic("core: unreachable thread selection")
}

// Clip is one of a node's clips: on Thread it receives the stream from
// Parent (ServerID when it is the top clip) and passes it on to Child (0
// when it is the bottom clip).
type Clip struct {
	Thread        int
	Parent, Child NodeID
}

// Clips returns id's clips in thread order, built in one walk of its
// row's slots at O(d·log N). It is the one neighbour query the control
// plane needs: hello, good-bye, repair and the §5 degree changes are all
// per-thread redirects between a clip's parent and child.
func (c *Curtain) Clips(id NodeID) ([]Clip, error) {
	r, ok := c.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	out := make([]Clip, len(r.slots))
	for i, slot := range r.slots {
		out[i].Thread = r.threads[i]
		if p := tprev(slot); p != nil {
			out[i].Parent = p.r.id
		}
		if s := tnext(slot); s != nil {
			out[i].Child = s.r.id
		}
	}
	return out, nil
}

// HangingThreads returns, per thread, the id of its current bottom clip
// (ServerID for threads no node is on). These are the k slots a new node's
// d-tuple is drawn from.
func (c *Curtain) HangingThreads() []NodeID {
	out := make([]NodeID, c.k)
	for t := 0; t < c.k; t++ {
		if b := c.occ[t].last(); b != nil {
			out[t] = b.r.id
		}
	}
	return out
}

// --- internal row plumbing ---

// sampleDistinct draws d distinct ints from [0,k) uniformly, sorted.
func sampleDistinct(rng *rand.Rand, k, d int) []int {
	if d*3 >= k {
		// Dense: partial Fisher-Yates over all k.
		perm := rng.Perm(k)[:d]
		sort.Ints(perm)
		return perm
	}
	seen := make(map[int]bool, d)
	out := make([]int, 0, d)
	for len(out) < d {
		t := rng.Intn(k)
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Ints(out)
	return out
}

// sampleDistinctInto is sampleDistinct writing into out's storage, so the
// hot join path can reuse a pooled row's thread slice. It consumes the
// rng stream exactly as sampleDistinct does (same draws, same order; only
// the duplicate check differs — a linear scan over ≤ d elements instead
// of a map), which the differential suite pins against the reference.
func sampleDistinctInto(rng *rand.Rand, k, d int, out []int) []int {
	out = out[:0]
	if d*3 >= k {
		perm := rng.Perm(k)
		out = append(out, perm[:d]...)
		sort.Ints(out)
		return out
	}
	for len(out) < d {
		t := rng.Intn(k)
		dup := false
		for _, s := range out {
			if s == t {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t)
		}
	}
	sort.Ints(out)
	return out
}

func (c *Curtain) insertRow(r *row, pos int) {
	c.list.insertAt(pos, r)
	if cap(r.slots) >= len(r.threads) {
		r.slots = r.slots[:len(r.threads)]
	} else {
		r.slots = make([]*tnode, len(r.threads))
	}
	for i, t := range r.threads {
		r.slots[i] = c.occ[t].insert(r, c.list.nextPrio())
	}
}

func (c *Curtain) removeRow(r *row) {
	for i, t := range r.threads {
		c.occ[t].remove(r.slots[i])
	}
	c.list.remove(r.on)
	if r.failed {
		c.failed--
	}
	delete(c.index, r.id)
	// Recycle the row: clear everything but keep the thread/slot storage.
	for i := range r.slots {
		r.slots[i] = nil
	}
	*r = row{threads: r.threads[:0], slots: r.slots[:0]}
	c.freeRows = append(c.freeRows, r)
}

// Validate checks internal consistency; it is used by tests and costs
// O(N·d + k·occ). It returns the first inconsistency found.
// It is an alias for CheckInvariants, kept for callers of the original
// linear implementation.
func (c *Curtain) Validate() error { return c.CheckInvariants() }

// CheckInvariants verifies the §3 structural invariants and the internal
// index consistency, returning the first violation found:
//
//   - every live row holds a sorted set of distinct threads in [0,k) — no
//     thread is hosted twice by one node — and its degree matches;
//   - the per-thread occupancy treaps contain exactly the rows clipped to
//     them, in row order, so hanging-thread accounting balances (the
//     bottom clip of each thread is the last row hosting it, and total
//     occupancy equals the sum of degrees);
//   - the order treap's sizes, heap priorities, parent links and order
//     labels are mutually consistent.
//
// It costs O(N·d + k) and is meant for tests and debug assertions, not
// the hot path.
func (c *Curtain) CheckInvariants() error {
	// Global order treap: structure, sizes, heap property, label order.
	n := 0
	var lastLabel uint64
	var structErr error
	c.list.inorder(func(x *onode) {
		n++
		if structErr != nil {
			return
		}
		if x.size != 1+osize(x.left)+osize(x.right) {
			structErr = fmt.Errorf("core: order treap size mismatch at node %d", x.r.id)
			return
		}
		if x.left != nil && x.left.parent != x || x.right != nil && x.right.parent != x {
			structErr = fmt.Errorf("core: order treap parent link broken at node %d", x.r.id)
			return
		}
		if x.parent != nil && x.prio > x.parent.prio {
			structErr = fmt.Errorf("core: order treap heap violation at node %d", x.r.id)
			return
		}
		if n > 1 && x.label <= lastLabel {
			structErr = fmt.Errorf("core: order labels not increasing at node %d", x.r.id)
			return
		}
		lastLabel = x.label
		if x.r.on != x {
			structErr = fmt.Errorf("core: row handle out of sync for node %d", x.r.id)
		}
	})
	if structErr != nil {
		return structErr
	}
	if n != c.list.len() {
		return fmt.Errorf("core: order treap walk saw %d rows, size says %d", n, c.list.len())
	}
	if len(c.index) != n {
		return fmt.Errorf("core: index size %d, rows %d", len(c.index), n)
	}

	// Per-row invariants: distinct sorted threads, aligned slots, failure
	// accounting.
	failed := 0
	want := 0
	for id, r := range c.index {
		if r.id != id {
			return fmt.Errorf("core: index key %d maps to row %d", id, r.id)
		}
		if r.failed {
			failed++
		}
		if len(r.threads) == 0 {
			return fmt.Errorf("core: node %d has no threads", r.id)
		}
		if len(r.slots) != len(r.threads) {
			return fmt.Errorf("core: node %d has %d slots for %d threads", r.id, len(r.slots), len(r.threads))
		}
		want += len(r.threads)
		for j, t := range r.threads {
			if t < 0 || t >= c.k {
				return fmt.Errorf("core: node %d on out-of-range thread %d", r.id, t)
			}
			if j > 0 && t <= r.threads[j-1] {
				return fmt.Errorf("core: node %d threads not sorted/distinct", r.id)
			}
			if r.slots[j] == nil || r.slots[j].r != r {
				return fmt.Errorf("core: node %d slot %d points at the wrong row", r.id, j)
			}
		}
	}
	if failed != c.failed {
		return fmt.Errorf("core: failed count %d, tagged rows %d", c.failed, failed)
	}

	// Per-thread occupancy: row order, membership, slot identity, hanging
	// accounting.
	total := 0
	for t := 0; t < c.k; t++ {
		var prev *tnode
		var threadErr error
		var bottom *tnode
		c.occ[t].inorder(func(x *tnode) {
			total++
			bottom = x
			if threadErr != nil {
				return
			}
			if x.left != nil && x.left.parent != x || x.right != nil && x.right.parent != x {
				threadErr = fmt.Errorf("core: thread %d treap parent link broken at node %d", t, x.r.id)
				return
			}
			if x.parent != nil && x.prio > x.parent.prio {
				threadErr = fmt.Errorf("core: thread %d treap heap violation at node %d", t, x.r.id)
				return
			}
			if prev != nil && x.r.on.label <= prev.r.on.label {
				threadErr = fmt.Errorf("core: thread %d occupancy out of order", t)
				return
			}
			prev = x
			i := sort.SearchInts(x.r.threads, t)
			if i >= len(x.r.threads) || x.r.threads[i] != t {
				threadErr = fmt.Errorf("core: node %d in thread %d occupancy without membership", x.r.id, t)
				return
			}
			if x.r.slots[i] != x {
				threadErr = fmt.Errorf("core: node %d slot for thread %d is a stale clip", x.r.id, t)
			}
		})
		if threadErr != nil {
			return threadErr
		}
		if bottom != c.occ[t].last() {
			return fmt.Errorf("core: thread %d bottom clip out of sync", t)
		}
	}
	if total != want {
		return fmt.Errorf("core: occupancy total %d, want %d", total, want)
	}
	return nil
}

// Topology is an analysis-plane snapshot of the overlay as a DAG. Graph
// node 0 is the server; node i+1 is row i of M at snapshot time.
type Topology struct {
	// Graph holds every structural edge, including edges incident to
	// failed nodes (a failed node still occupies its slots).
	Graph *graph.Digraph
	// IDs maps graph index -> NodeID (IDs[0] == ServerID).
	IDs []NodeID
	// Index maps NodeID -> graph index.
	Index map[NodeID]int
	// Working[i] reports whether graph node i forwards data. Working[0]
	// (the server) is always true.
	Working []bool
	// ThreadBottom[t] is the graph index of thread t's bottom clip (0
	// when the thread hangs from the server directly).
	ThreadBottom []int
}

// Snapshot exports the current overlay.
func (c *Curtain) Snapshot() *Topology {
	n := c.list.len()
	t := &Topology{
		Graph:        graph.NewDigraph(n + 1),
		IDs:          make([]NodeID, n+1),
		Index:        make(map[NodeID]int, n+1),
		Working:      make([]bool, n+1),
		ThreadBottom: make([]int, c.k),
	}
	t.IDs[0] = ServerID
	t.Index[ServerID] = 0
	t.Working[0] = true
	i := 0
	c.list.inorder(func(x *onode) {
		r := x.r
		r.pos = i
		t.IDs[i+1] = r.id
		t.Index[r.id] = i + 1
		t.Working[i+1] = !r.failed
		i++
	})
	for th := 0; th < c.k; th++ {
		prev := 0
		c.occ[th].inorder(func(x *tnode) {
			cur := x.r.pos + 1
			if _, err := t.Graph.AddEdge(prev, cur); err != nil {
				panic(err) // indices valid by construction
			}
			prev = cur
		})
		t.ThreadBottom[th] = prev
	}
	return t
}

// Effective returns the data-plane graph: the structural graph with every
// edge incident to a failed node removed. Failed nodes remain as isolated
// vertices so indices line up with the snapshot.
func (t *Topology) Effective() *graph.Digraph {
	g := graph.NewDigraph(t.Graph.NumNodes())
	for id := 0; id < t.Graph.NumEdges(); id++ {
		e := t.Graph.Edge(id)
		if t.Working[e.From] && t.Working[e.To] {
			if _, err := g.AddEdge(e.From, e.To); err != nil {
				panic(err)
			}
		}
	}
	return g
}
