package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ncast/internal/graph"
)

// TestQuickCurtainInvariants drives random operation sequences (derived
// from quick-generated seeds) against a curtain and asserts the deep
// structural invariants after each: Validate() plus the parent/child
// duality (i is a parent of j on some thread iff j is a child of i).
func TestQuickCurtainInvariants(t *testing.T) {
	t.Parallel()
	prop := func(seed int64, kRaw, dRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + int(kRaw)%14
		d := 1 + int(dRaw)%k
		if d > k {
			d = k
		}
		c, err := New(k, d, r)
		if err != nil {
			return false
		}
		var alive []NodeID
		for step := 0; step < 60; step++ {
			switch {
			case r.Intn(3) > 0 || len(alive) == 0:
				alive = append(alive, c.JoinTagged(r.Intn(8) == 0))
			default:
				i := r.Intn(len(alive))
				id := alive[i]
				if c.IsFailed(id) {
					if err := c.Repair(id); err != nil {
						return false
					}
				} else if err := c.Leave(id); err != nil {
					return false
				}
				alive = append(alive[:i], alive[i+1:]...)
			}
			if err := c.Validate(); err != nil {
				t.Logf("validate: %v", err)
				return false
			}
		}
		// Parent/child duality over the survivors: a clip's parent has the
		// clip's node as its child on the same thread.
		for _, id := range alive {
			clips, err := c.Clips(id)
			if err != nil {
				return false
			}
			for _, cl := range clips {
				if cl.Parent == ServerID {
					continue
				}
				above, err := c.Clips(cl.Parent)
				if err != nil {
					return false
				}
				found := false
				for _, a := range above {
					if a.Thread == cl.Thread {
						found = a.Child == id
						break
					}
				}
				if !found {
					t.Logf("duality broken: %d has parent %d on thread %d but is not its child there", id, cl.Parent, cl.Thread)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickFailureFreeConnectivity asserts, over quick-generated
// configurations, the §3 invariant that a failure-free curtain gives every
// node connectivity exactly d.
func TestQuickFailureFreeConnectivity(t *testing.T) {
	t.Parallel()
	prop := func(seed int64, kRaw, dRaw, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + int(kRaw)%14
		d := 1 + int(dRaw)%k
		n := 1 + int(nRaw)%40
		c, err := New(k, d, r)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			c.Join()
		}
		top := c.Snapshot()
		fs := graph.NewFlowSolver(top.Effective())
		for gi := 1; gi < top.Graph.NumNodes(); gi++ {
			if fs.MaxFlow(0, gi, -1) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
