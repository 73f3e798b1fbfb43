package core

// Differential tests: the indexed Curtain against the retained linear-scan
// reference (curtain_ref_test.go). Both are driven by identically seeded
// rngs through identical operation sequences; after every single operation
// the full matrix state must be byte-identical and the indexed side must
// satisfy CheckInvariants. This pins two contracts at once:
//
//  1. topology semantics — row order, occupancy, each clip's parent and
//     child, hanging threads all agree with the original implementation;
//  2. rng consumption — any extra or missing draw on either side desyncs
//     every subsequent placement and the matrices diverge immediately.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// matrixString renders M rows in order as "id:threads[:failed]" lines —
// the byte-identical comparison format for the differential tests. The
// exported Curtain.MatrixString emits the same format; every differential
// run compares the two byte-for-byte (indexedMatrix vs refMatrix), which
// pins them together.
func matrixString(ids []NodeID, threads func(NodeID) ([]int, error), failed func(NodeID) bool) string {
	var b strings.Builder
	for _, id := range ids {
		ts, err := threads(id)
		if err != nil {
			fmt.Fprintf(&b, "%d:ERR(%v)\n", id, err)
			continue
		}
		fmt.Fprintf(&b, "%d:%v", id, ts)
		if failed(id) {
			b.WriteString(":failed")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func indexedMatrix(c *Curtain) string {
	return c.MatrixString()
}

func refMatrix(c *refCurtain) string {
	return matrixString(c.Nodes(), c.Threads, c.IsFailed)
}

// diffHarness holds one indexed/reference pair driven in lockstep.
type diffHarness struct {
	ind *Curtain
	ref *refCurtain
	ops *rand.Rand // drives op selection only — never touched by either impl
}

func newDiffHarness(t *testing.T, seed int64, k, d int, mode InsertMode) *diffHarness {
	t.Helper()
	ind, err := New(k, d, rand.New(rand.NewSource(seed)), WithInsertMode(mode))
	if err != nil {
		t.Fatal(err)
	}
	return &diffHarness{
		ind: ind,
		ref: newRefCurtain(k, d, rand.New(rand.NewSource(seed)), mode),
		ops: rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
}

// sameErr requires both sides to fail or succeed together, with the same
// error text when failing.
func sameErr(t *testing.T, step int, op string, a, b error) {
	t.Helper()
	switch {
	case (a == nil) != (b == nil):
		t.Fatalf("step %d %s: indexed err %v, reference err %v", step, op, a, b)
	case a != nil && a.Error() != b.Error():
		t.Fatalf("step %d %s: error text diverged: %q vs %q", step, op, a, b)
	}
}

// pick returns a uniformly random live id, identical on both sides (the
// matrices are in lockstep, so either Nodes() works). Returns false when
// the curtain is empty.
func (h *diffHarness) pick() (NodeID, bool) {
	ids := h.ref.Nodes()
	if len(ids) == 0 {
		return 0, false
	}
	return ids[h.ops.Intn(len(ids))], true
}

// step applies one random operation to both implementations and checks
// the outputs agree.
func (h *diffHarness) step(t *testing.T, step int) {
	t.Helper()
	switch op := h.ops.Intn(100); {
	case op < 30: // hello, default degree
		a, errA := h.ind.JoinDegree(h.ind.D())
		b, errB := h.ref.JoinDegree(h.ref.d)
		sameErr(t, step, "join", errA, errB)
		if a != b {
			t.Fatalf("step %d join: id %d vs %d", step, a, b)
		}
	case op < 38: // hello, heterogeneous degree (possibly invalid)
		d := h.ops.Intn(h.ind.K()+2) - 1 // includes -1, 0 and k+1 rejections
		a, errA := h.ind.JoinDegree(d)
		b, errB := h.ref.JoinDegree(d)
		sameErr(t, step, "join-degree", errA, errB)
		if a != b {
			t.Fatalf("step %d join-degree: id %d vs %d", step, a, b)
		}
	case op < 42: // §4 coin-toss join
		failed := h.ops.Intn(2) == 0
		a := h.ind.JoinTagged(failed)
		b := h.ref.JoinTagged(failed)
		if a != b {
			t.Fatalf("step %d join-tagged: id %d vs %d", step, a, b)
		}
	case op < 62: // good-bye
		id, ok := h.pick()
		if !ok {
			return
		}
		sameErr(t, step, "leave", h.ind.Leave(id), h.ref.Leave(id))
	case op < 72: // failure
		id, ok := h.pick()
		if !ok {
			return
		}
		sameErr(t, step, "fail", h.ind.Fail(id), h.ref.Fail(id))
	case op < 78: // ergodic recovery
		id, ok := h.pick()
		if !ok {
			return
		}
		sameErr(t, step, "recover", h.ind.Recover(id), h.ref.Recover(id))
	case op < 88: // repair
		id, ok := h.pick()
		if !ok {
			return
		}
		sameErr(t, step, "repair", h.ind.Repair(id), h.ref.Repair(id))
	case op < 94: // §5 congestion: degree down
		id, ok := h.pick()
		if !ok {
			return
		}
		a, errA := h.ind.ReduceDegree(id)
		b, errB := h.ref.ReduceDegree(id)
		sameErr(t, step, "reduce", errA, errB)
		if a != b {
			t.Fatalf("step %d reduce: dropped thread %d vs %d", step, a, b)
		}
	case op < 99: // §5 congestion: degree back up
		id, ok := h.pick()
		if !ok {
			return
		}
		a, errA := h.ind.IncreaseDegree(id)
		b, errB := h.ref.IncreaseDegree(id)
		sameErr(t, step, "increase", errA, errB)
		if a != b {
			t.Fatalf("step %d increase: gained thread %d vs %d", step, a, b)
		}
	default: // op on an id that was never issued
		ghost := NodeID(1 << 40)
		sameErr(t, step, "ghost-leave", h.ind.Leave(ghost), h.ref.Leave(ghost))
		if !errors.Is(h.ind.Leave(ghost), ErrUnknownNode) {
			t.Fatalf("step %d: ghost leave did not return ErrUnknownNode", step)
		}
	}
}

// verify compares the complete observable state of both implementations.
func (h *diffHarness) verify(t *testing.T, step int) {
	t.Helper()
	if err := h.ind.CheckInvariants(); err != nil {
		t.Fatalf("step %d: invariants: %v", step, err)
	}
	if got, want := indexedMatrix(h.ind), refMatrix(h.ref); got != want {
		t.Fatalf("step %d: matrices diverged\nindexed:\n%s\nreference:\n%s", step, got, want)
	}
	if got, want := fmt.Sprint(h.ind.HangingThreads()), fmt.Sprint(h.ref.HangingThreads()); got != want {
		t.Fatalf("step %d: hanging threads %s vs %s", step, got, want)
	}
	if h.ind.NumFailed() != h.ref.NumFailed() {
		t.Fatalf("step %d: failed count %d vs %d", step, h.ind.NumFailed(), h.ref.NumFailed())
	}
	// Spot-check one random live node's clips against the reference's
	// threads, parents and children: a clip's parent is the reference's
	// parent on its thread, and the clips' children, bottom clips left out,
	// are the reference's children.
	if id, ok := h.pick(); ok {
		clips, errA := h.ind.Clips(id)
		pb, errB := h.ref.Parents(id)
		sameErr(t, step, "clips", errA, errB)
		cb, _ := h.ref.Children(id)
		tb, _ := h.ref.Threads(id)
		var ta []int
		var pa, ca []NodeID
		for _, cl := range clips {
			ta, pa = append(ta, cl.Thread), append(pa, cl.Parent)
			if cl.Child != 0 {
				ca = append(ca, cl.Child)
			}
		}
		if fmt.Sprint(ta, pa, ca) != fmt.Sprint(tb, pb, cb) {
			t.Fatalf("step %d: clips of %d: %v vs threads %v, parents %v, children %v", step, id, clips, tb, pb, cb)
		}
	}
}

// TestDifferentialAgainstReference runs 1,200 seeded op sequences (half
// append mode, half random-insert mode, varying k and d) and requires
// byte-identical matrix state after every operation.
func TestDifferentialAgainstReference(t *testing.T) {
	t.Parallel()
	const seeds = 1200
	const stepsPerSeed = 120
	for seed := int64(0); seed < seeds; seed++ {
		mode := InsertAppend
		if seed%2 == 1 {
			mode = InsertRandom
		}
		// Sweep structural regimes: dense (d*3 >= k) and sparse thread
		// sampling, degree-1 chains, and near-square matrices.
		shapes := [...]struct{ k, d int }{{8, 2}, {16, 3}, {4, 4}, {32, 2}, {6, 1}, {12, 5}}
		shape := shapes[seed%int64(len(shapes))]
		h := newDiffHarness(t, seed, shape.k, shape.d, mode)
		for s := 0; s < stepsPerSeed; s++ {
			h.step(t, s)
			// Every op's return values are compared inside step; the full
			// matrix diff runs on a stride (and always at the end) to keep
			// 1,200 sequences fast under -race. Any placement divergence
			// still surfaces: a desynced rng shifts every later id/thread
			// draw, which the per-op comparisons catch immediately.
			if s%7 == 0 || s == stepsPerSeed-1 {
				h.verify(t, s)
			}
		}
	}
}

// TestDifferentialLongRun drives one deep sequence per mode so the curtain
// grows large enough for non-trivial treap shapes and repeated churn.
func TestDifferentialLongRun(t *testing.T) {
	t.Parallel()
	for _, mode := range []InsertMode{InsertAppend, InsertRandom} {
		h := newDiffHarness(t, int64(77+mode), 16, 3, mode)
		for s := 0; s < 6000; s++ {
			h.step(t, s)
			if s%25 == 0 || s > 5900 {
				h.verify(t, s)
			}
		}
		h.verify(t, 6000)
	}
}
