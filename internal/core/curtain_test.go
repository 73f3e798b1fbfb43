package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ncast/internal/graph"
)

func newCurtain(t testing.TB, k, d int, seed int64, opts ...Option) *Curtain {
	t.Helper()
	c, err := New(k, d, rand.New(rand.NewSource(seed)), opts...)
	if err != nil {
		t.Fatalf("New(%d,%d): %v", k, d, err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(1))
	tests := []struct {
		name    string
		k, d    int
		rng     *rand.Rand
		opts    []Option
		wantErr bool
	}{
		{"ok", 8, 2, r, nil, false},
		{"d equals k", 4, 4, r, nil, false},
		{"zero k", 0, 2, r, nil, true},
		{"zero d", 8, 0, r, nil, true},
		{"d exceeds k", 4, 5, r, nil, true},
		{"nil rng", 8, 2, nil, nil, true},
		{"bad mode", 8, 2, r, []Option{WithInsertMode(InsertMode(99))}, true},
		{"random mode", 8, 2, r, []Option{WithInsertMode(InsertRandom)}, false},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			_, err := New(tt.k, tt.d, tt.rng, tt.opts...)
			if (err != nil) != tt.wantErr {
				t.Errorf("New error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestJoinBasics(t *testing.T) {
	t.Parallel()
	c := newCurtain(t, 8, 3, 1)
	id := c.Join()
	if id == ServerID {
		t.Fatal("client got ServerID")
	}
	if c.NumNodes() != 1 || !c.Contains(id) || c.IsFailed(id) {
		t.Fatal("join bookkeeping wrong")
	}
	d, err := c.Degree(id)
	if err != nil || d != 3 {
		t.Fatalf("Degree = %d, %v", d, err)
	}
	th, err := c.Threads(id)
	if err != nil || len(th) != 3 {
		t.Fatalf("Threads = %v, %v", th, err)
	}
	for i := 1; i < len(th); i++ {
		if th[i] <= th[i-1] {
			t.Fatal("threads not sorted distinct")
		}
	}
	// First node's parents are all the server, and it has no children.
	clips, err := c.Clips(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, cl := range clips {
		if cl.Thread != th[i] || cl.Parent != ServerID || cl.Child != 0 {
			t.Fatalf("first node clip %d = %+v, want thread %d under the server", i, cl, th[i])
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParentsChildrenChain(t *testing.T) {
	t.Parallel()
	// k = d = 2: every node takes both threads, forming a chain.
	c := newCurtain(t, 2, 2, 2)
	a := c.Join()
	b := c.Join()
	ca, _ := c.Clips(a)
	if want := []Clip{{0, ServerID, b}, {1, ServerID, b}}; !slices.Equal(ca, want) {
		t.Fatalf("a clips = %v, want %v", ca, want)
	}
	cb, _ := c.Clips(b)
	if want := []Clip{{0, a, 0}, {1, a, 0}}; !slices.Equal(cb, want) {
		t.Fatalf("b clips = %v, want %v", cb, want)
	}
	hang := c.HangingThreads()
	for _, h := range hang {
		if h != b {
			t.Fatalf("hanging = %v, want all b", hang)
		}
	}
}

func TestLeaveReconnects(t *testing.T) {
	t.Parallel()
	c := newCurtain(t, 2, 2, 3)
	a := c.Join()
	b := c.Join()
	x := c.Join()
	// Chain a -> b -> x. Removing b must splice a -> x.
	if err := c.Leave(b); err != nil {
		t.Fatal(err)
	}
	if c.Contains(b) {
		t.Fatal("b still present after leave")
	}
	if cx, _ := c.Clips(x); cx[0].Parent != a || cx[1].Parent != a {
		t.Fatalf("x clips after leave = %v, want parent a on both", cx)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(b); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("double leave err = %v, want ErrUnknownNode", err)
	}
}

func TestFailRepairLifecycle(t *testing.T) {
	t.Parallel()
	c := newCurtain(t, 2, 2, 4)
	a := c.Join()
	b := c.Join()
	x := c.Join()
	if err := c.Fail(b); err != nil {
		t.Fatal(err)
	}
	if !c.IsFailed(b) || c.NumFailed() != 1 {
		t.Fatal("fail tag missing")
	}
	if err := c.Fail(b); !errors.Is(err, ErrNodeFailed) {
		t.Fatalf("double fail err = %v", err)
	}
	if err := c.Leave(b); !errors.Is(err, ErrNodeFailed) {
		t.Fatalf("leave of failed node err = %v", err)
	}
	if err := c.Repair(a); !errors.Is(err, ErrNodeWorking) {
		t.Fatalf("repair of working node err = %v", err)
	}
	// While failed, the topology still routes through b structurally but
	// the effective graph must not.
	top := c.Snapshot()
	eff := top.Effective()
	fs := graph.NewFlowSolver(eff)
	if got := fs.MaxFlow(0, top.Index[x], -1); got != 0 {
		t.Fatalf("connectivity through failed node = %d, want 0", got)
	}
	if err := c.Repair(b); err != nil {
		t.Fatal(err)
	}
	if c.Contains(b) {
		t.Fatal("b present after repair")
	}
	// After repair x is reconnected to a.
	top = c.Snapshot()
	fs = graph.NewFlowSolver(top.Effective())
	if got := fs.MaxFlow(0, top.Index[x], -1); got != 2 {
		t.Fatalf("connectivity after repair = %d, want 2", got)
	}
}

func TestRecoverErgodic(t *testing.T) {
	t.Parallel()
	c := newCurtain(t, 4, 2, 5)
	a := c.Join()
	if err := c.Recover(a); !errors.Is(err, ErrNodeWorking) {
		t.Fatalf("recover of working node err = %v", err)
	}
	if err := c.Fail(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(a); err != nil {
		t.Fatal(err)
	}
	if c.IsFailed(a) {
		t.Fatal("still failed after recover")
	}
}

func TestHeterogeneousDegrees(t *testing.T) {
	t.Parallel()
	c := newCurtain(t, 8, 2, 6)
	lo, err := c.JoinDegree(1)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := c.JoinDegree(8)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := c.Degree(lo); d != 1 {
		t.Fatalf("lo degree = %d", d)
	}
	if d, _ := c.Degree(hi); d != 8 {
		t.Fatalf("hi degree = %d", d)
	}
	if _, err := c.JoinDegree(0); !errors.Is(err, ErrDegree) {
		t.Fatalf("degree 0 err = %v", err)
	}
	if _, err := c.JoinDegree(9); !errors.Is(err, ErrDegree) {
		t.Fatalf("degree k+1 err = %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCongestionDegreeChanges(t *testing.T) {
	t.Parallel()
	c := newCurtain(t, 8, 3, 7)
	id := c.Join()
	before, _ := c.Threads(id)
	dropped, err := c.ReduceDegree(id)
	if err != nil {
		t.Fatal(err)
	}
	if !containsInt(before, dropped) {
		t.Fatalf("dropped thread %d was not held: %v", dropped, before)
	}
	if d, _ := c.Degree(id); d != 2 {
		t.Fatalf("degree after reduce = %d", d)
	}
	if _, err := c.ReduceDegree(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReduceDegree(id); !errors.Is(err, ErrDegree) {
		t.Fatalf("reduce below 1 err = %v", err)
	}
	for i := 0; i < 7; i++ {
		gained, err := c.IncreaseDegree(id)
		if err != nil {
			t.Fatalf("increase %d: %v", i, err)
		}
		th, _ := c.Threads(id)
		if !containsInt(th, gained) {
			t.Fatalf("gained thread %d not held: %v", gained, th)
		}
	}
	if d, _ := c.Degree(id); d != 8 {
		t.Fatalf("degree after regrow = %d", d)
	}
	if _, err := c.IncreaseDegree(id); !errors.Is(err, ErrDegree) {
		t.Fatalf("increase beyond k err = %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotStructure(t *testing.T) {
	t.Parallel()
	c := newCurtain(t, 6, 2, 8)
	var ids []NodeID
	for i := 0; i < 20; i++ {
		ids = append(ids, c.Join())
	}
	top := c.Snapshot()
	if top.Graph.NumNodes() != 21 {
		t.Fatalf("snapshot nodes = %d, want 21", top.Graph.NumNodes())
	}
	// Every node has in-degree equal to its degree (one edge per thread).
	for _, id := range ids {
		d, _ := c.Degree(id)
		if got := top.Graph.InDegree(top.Index[id]); got != d {
			t.Fatalf("node %d in-degree %d, want %d", id, got, d)
		}
	}
	// Total edges = sum of degrees.
	if got := top.Graph.NumEdges(); got != 40 {
		t.Fatalf("edges = %d, want 40", got)
	}
	// Thread bottoms match HangingThreads.
	hang := c.HangingThreads()
	for th, h := range hang {
		if top.IDs[top.ThreadBottom[th]] != h {
			t.Fatalf("thread %d bottom mismatch", th)
		}
	}
	// Server out-degree is at most k and each thread contributes at most
	// one server edge.
	if got := top.Graph.OutDegree(0); got > 6 {
		t.Fatalf("server out-degree = %d > k", got)
	}
}

func TestFailureFreeConnectivityIsD(t *testing.T) {
	t.Parallel()
	// §3: the d thread-paths of a node are edge-disjoint by construction,
	// so with no failures every node has connectivity exactly d.
	for _, cfg := range []struct{ k, d, n int }{
		{8, 2, 30}, {12, 3, 40}, {16, 4, 25},
	} {
		c := newCurtain(t, cfg.k, cfg.d, int64(cfg.k*cfg.d))
		for i := 0; i < cfg.n; i++ {
			c.Join()
		}
		top := c.Snapshot()
		fs := graph.NewFlowSolver(top.Effective())
		for gi := 1; gi < top.Graph.NumNodes(); gi++ {
			if got := fs.MaxFlow(0, gi, -1); got != cfg.d {
				t.Fatalf("k=%d d=%d: node %d connectivity = %d, want %d",
					cfg.k, cfg.d, gi, got, cfg.d)
			}
		}
	}
}

func TestRandomInsertMode(t *testing.T) {
	t.Parallel()
	c := newCurtain(t, 8, 2, 9, WithInsertMode(InsertRandom))
	if c.Mode() != InsertRandom {
		t.Fatal("mode not recorded")
	}
	for i := 0; i < 50; i++ {
		c.Join()
		if err := c.Validate(); err != nil {
			t.Fatalf("after join %d: %v", i, err)
		}
	}
	// Random insertion must still yield full connectivity without
	// failures: the acyclic thread-path argument is order-independent.
	top := c.Snapshot()
	fs := graph.NewFlowSolver(top.Effective())
	for gi := 1; gi < top.Graph.NumNodes(); gi++ {
		if got := fs.MaxFlow(0, gi, -1); got != 2 {
			t.Fatalf("node %d connectivity = %d, want 2", gi, got)
		}
	}
	// And ids must NOT be in row order with high probability (50 random
	// insertions leaving ids sorted has probability 1/50!).
	nodes := c.Nodes()
	sorted := true
	for i := 1; i < len(nodes); i++ {
		if nodes[i] < nodes[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		t.Fatal("random insert mode produced perfectly ordered rows")
	}
}

func TestChurnConsistencyRandomized(t *testing.T) {
	t.Parallel()
	// Property-style churn hammering: random joins, leaves, failures,
	// repairs, recovers, degree changes; Validate after every operation.
	for _, mode := range []InsertMode{InsertAppend, InsertRandom} {
		mode := mode
		t.Run(map[InsertMode]string{InsertAppend: "append", InsertRandom: "random"}[mode], func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(77))
			c := newCurtain(t, 10, 3, 78, WithInsertMode(mode))
			var alive []NodeID
			for step := 0; step < 600; step++ {
				op := r.Intn(10)
				switch {
				case op < 4 || len(alive) == 0: // join
					alive = append(alive, c.JoinTagged(r.Intn(10) == 0))
				case op < 6: // leave or repair
					i := r.Intn(len(alive))
					id := alive[i]
					var err error
					if c.IsFailed(id) {
						err = c.Repair(id)
					} else {
						err = c.Leave(id)
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					alive = append(alive[:i], alive[i+1:]...)
				case op < 7: // fail
					id := alive[r.Intn(len(alive))]
					if !c.IsFailed(id) {
						if err := c.Fail(id); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				case op < 8: // recover
					id := alive[r.Intn(len(alive))]
					if c.IsFailed(id) {
						if err := c.Recover(id); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				case op < 9: // reduce degree
					id := alive[r.Intn(len(alive))]
					if d, _ := c.Degree(id); d > 1 {
						if _, err := c.ReduceDegree(id); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				default: // increase degree
					id := alive[r.Intn(len(alive))]
					if d, _ := c.Degree(id); d < c.K() {
						if _, err := c.IncreaseDegree(id); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				}
				if err := c.Validate(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if c.NumNodes() != len(alive) {
				t.Fatalf("node count %d, tracked %d", c.NumNodes(), len(alive))
			}
		})
	}
}

func TestSnapshotIsAcyclicDAG(t *testing.T) {
	t.Parallel()
	// §6 invariant: the curtain topology remains acyclic under churn.
	r := rand.New(rand.NewSource(55))
	c := newCurtain(t, 8, 2, 56, WithInsertMode(InsertRandom))
	var alive []NodeID
	for step := 0; step < 200; step++ {
		if r.Intn(3) > 0 || len(alive) == 0 {
			alive = append(alive, c.Join())
		} else {
			i := r.Intn(len(alive))
			if err := c.Leave(alive[i]); err != nil {
				t.Fatal(err)
			}
			alive = append(alive[:i], alive[i+1:]...)
		}
	}
	top := c.Snapshot()
	// Every edge goes from a lower graph index... not necessarily: graph
	// index equals row position, and edges follow row order, so
	// From < To always. That IS the acyclicity proof.
	for i := 0; i < top.Graph.NumEdges(); i++ {
		e := top.Graph.Edge(i)
		if e.From >= e.To {
			t.Fatalf("edge %d -> %d violates row order (cycle risk)", e.From, e.To)
		}
	}
}

func TestUnknownNodeErrors(t *testing.T) {
	t.Parallel()
	c := newCurtain(t, 4, 2, 10)
	const ghost NodeID = 999
	if _, err := c.Degree(ghost); !errors.Is(err, ErrUnknownNode) {
		t.Error("Degree")
	}
	if _, err := c.Threads(ghost); !errors.Is(err, ErrUnknownNode) {
		t.Error("Threads")
	}
	if _, err := c.Clips(ghost); !errors.Is(err, ErrUnknownNode) {
		t.Error("Clips")
	}
	if err := c.Fail(ghost); !errors.Is(err, ErrUnknownNode) {
		t.Error("Fail")
	}
	if err := c.Repair(ghost); !errors.Is(err, ErrUnknownNode) {
		t.Error("Repair")
	}
	if err := c.Recover(ghost); !errors.Is(err, ErrUnknownNode) {
		t.Error("Recover")
	}
	if _, err := c.ReduceDegree(ghost); !errors.Is(err, ErrUnknownNode) {
		t.Error("ReduceDegree")
	}
	if _, err := c.IncreaseDegree(ghost); !errors.Is(err, ErrUnknownNode) {
		t.Error("IncreaseDegree")
	}
}

func TestLemma1LeaveDistributionInvariance(t *testing.T) {
	t.Parallel()
	// Lemma 1 sanity check at small scale: the aggregate distribution of
	// server out-degrees after (join n+m, leave the m most recent) should
	// match after (join n). We compare a coarse statistic over many
	// seeds: mean server out-degree.
	const k, d, n, m, trials = 6, 2, 10, 5, 300
	mean := func(churn bool) float64 {
		total := 0
		for s := int64(0); s < trials; s++ {
			c, err := New(k, d, rand.New(rand.NewSource(s)))
			if err != nil {
				t.Fatal(err)
			}
			var extra []NodeID
			for i := 0; i < n; i++ {
				c.Join()
			}
			if churn {
				for i := 0; i < m; i++ {
					extra = append(extra, c.Join())
				}
				for _, id := range extra {
					if err := c.Leave(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			top := c.Snapshot()
			total += top.Graph.OutDegree(0)
		}
		return float64(total) / trials
	}
	base, churned := mean(false), mean(true)
	diff := base - churned
	if diff < 0 {
		diff = -diff
	}
	// Same distribution => means within sampling noise. The statistic is
	// in [d, k]; tolerance 0.35 is ~5 sigma for 300 trials.
	if diff > 0.35 {
		t.Fatalf("server out-degree mean diverged: base %.3f vs churned %.3f", base, churned)
	}
}

func BenchmarkJoinAppend(b *testing.B) {
	c, err := New(64, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Join()
	}
}

func BenchmarkJoinLeaveChurn(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	c, err := New(64, 4, r)
	if err != nil {
		b.Fatal(err)
	}
	var alive []NodeID
	for i := 0; i < 1000; i++ {
		alive = append(alive, c.Join())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alive = append(alive, c.Join())
		j := r.Intn(len(alive))
		if err := c.Leave(alive[j]); err != nil {
			b.Fatal(err)
		}
		alive = append(alive[:j], alive[j+1:]...)
	}
}

func BenchmarkSnapshot1000(b *testing.B) {
	c, err := New(64, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		c.Join()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Snapshot()
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
