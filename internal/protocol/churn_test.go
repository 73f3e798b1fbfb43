package protocol

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ncast/internal/gf"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// The churn suite exercises the control plane's fault-tolerance layer:
// liveness leases sweeping crashed bottom clips, deadline-bounded outbox
// sends surviving stalled peers, and full broadcasts over a fault-injected
// transport.

// churnHarness is a session whose nodes have individual lifetimes and
// optionally fault-injected endpoints, driven by a lease-enabled tracker.
type churnHarness struct {
	net     *transport.Network
	tracker *Tracker
	source  *Source
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// churnNode is one node with its own cancel (so it can crash alone) and
// its fault injector (nil when running on the bare fabric).
type churnNode struct {
	node   *Node
	addr   string
	faulty *transport.Faulty
	cancel context.CancelFunc
}

func startChurnHarness(t *testing.T, k, d int, content []byte, mutate func(*TrackerConfig)) *churnHarness {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	net := transport.NewNetwork()
	trackerEP, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	params := rlnc.Params{Field: gf.F256, GenSize: 8, PacketSize: 32}
	source, err := NewSource(trackerEP, k, params, content, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrackerConfig{
		K: k, D: d,
		Session:      source.Session(),
		Seed:         7,
		LeaseTimeout: 500 * time.Millisecond,
		SendDeadline: 500 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	tracker, err := NewTracker(trackerEP, source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &churnHarness{net: net, tracker: tracker, source: source, ctx: ctx, cancel: cancel}
	h.wg.Add(2)
	go func() { defer h.wg.Done(); _ = tracker.Run(ctx) }()
	go func() { defer h.wg.Done(); _ = source.Run(ctx) }()
	t.Cleanup(func() {
		if err := tracker.CheckInvariants(); err != nil {
			t.Errorf("tracker invariants at teardown: %v", err)
		}
		cancel()
		net.Close()
		h.wg.Wait()
	})
	return h
}

// join adds a node, optionally behind a Faulty wrapper with the given
// fault plan (nil means a clean endpoint).
func (h *churnHarness) join(t *testing.T, addr string, fault *transport.FaultConfig) *churnNode {
	t.Helper()
	raw, err := h.net.Endpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	ep := transport.Endpoint(raw)
	var faulty *transport.Faulty
	if fault != nil {
		faulty = transport.NewFaulty(raw, *fault)
		ep = faulty
	}
	node := NewNode(ep, NodeConfig{
		TrackerAddr:      "tracker",
		ComplaintTimeout: 200 * time.Millisecond,
		Seed:             int64(len(addr)) * 31,
	})
	ctx, cancel := context.WithCancel(h.ctx)
	cn := &churnNode{node: node, addr: addr, faulty: faulty, cancel: cancel}
	h.wg.Add(1)
	go func() { defer h.wg.Done(); _ = node.Run(ctx) }()
	select {
	case err := <-node.Joined():
		if err != nil {
			t.Fatalf("join %s: %v", addr, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("join %s timed out", addr)
	}
	return cn
}

// crash kills the node without a good-bye: its goroutines stop and its
// address vanishes from the fabric, exactly like a power failure.
func (h *churnHarness) crash(n *churnNode) {
	n.cancel()
	h.net.CloseEndpoint(n.addr)
}

// waitNodes waits until the tracker population reaches want.
func (h *churnHarness) waitNodes(t *testing.T, want int, within time.Duration) {
	t.Helper()
	waitFor(t, within, fmt.Sprintf("population to reach %d (at %d)", want, h.tracker.NumNodes()), func() bool {
		return h.tracker.NumNodes() == want
	})
}

// TestLeafCrashLeaseSweepRemovesRow: a crashed bottom clip has no
// children, so the complaint protocol can never detect it — only the
// lease sweep removes its dangling row. Survivors must still decode and
// Health must converge to the live population with no failure tags left.
func TestLeafCrashLeaseSweepRemovesRow(t *testing.T) {
	t.Parallel()
	content := randContent(600)
	h := startChurnHarness(t, 8, 2, content, nil)
	nodes := make([]*churnNode, 0, 5)
	for _, addr := range []string{"n1", "n2", "n3", "n4", "n5"} {
		nodes = append(nodes, h.join(t, addr, nil))
	}
	// With append insertion the last-joined node holds the bottom row: it
	// is the bottom clip of each of its threads and has no children.
	leaf := nodes[len(nodes)-1]
	h.crash(leaf)

	h.waitNodes(t, 4, 10*time.Second)
	health := h.tracker.Health()
	if health.Nodes != 4 {
		t.Fatalf("Health().Nodes = %d, want 4", health.Nodes)
	}
	if health.Failed != 0 {
		t.Fatalf("Health().Failed = %d, want 0 after repair", health.Failed)
	}
	for _, n := range nodes[:4] {
		waitComplete(t, n.node, 30*time.Second)
	}
}

// TestChurnFaultyTransportAllDecode is the acceptance scenario: every
// node runs behind a 5%-loss fault injector, three leaf nodes crash
// without a good-bye, and still every survivor fully decodes while the
// tracker converges to exactly the live population (zero dangling rows).
func TestChurnFaultyTransportAllDecode(t *testing.T) {
	t.Parallel()
	content := randContent(600)
	h := startChurnHarness(t, 8, 2, content, nil)
	fault := &transport.FaultConfig{SendLoss: 0.05, RecvLoss: 0.05, Seed: 17}
	addrs := []string{"m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8"}
	nodes := make([]*churnNode, 0, len(addrs))
	for i, addr := range addrs {
		f := *fault
		f.Seed = int64(17 + i)
		nodes = append(nodes, h.join(t, addr, &f))
	}
	// Crash the three bottom-most rows (the latest joiners): no children,
	// no complaints — only the lease sweep can reclaim them.
	for _, n := range nodes[5:] {
		h.crash(n)
	}

	survivors := nodes[:5]
	for _, n := range survivors {
		waitComplete(t, n.node, 60*time.Second)
		got, err := n.node.Content()
		if err != nil {
			t.Fatalf("%s content: %v", n.addr, err)
		}
		if string(got) != string(content) {
			t.Fatalf("%s content mismatch", n.addr)
		}
	}
	h.waitNodes(t, 5, 15*time.Second)
	if health := h.tracker.Health(); health.Nodes != 5 || health.Failed != 0 {
		t.Fatalf("health = %+v, want 5 live rows and no failures", health)
	}
	// The fault plan must actually have fired, or this test proves nothing.
	injected := uint64(0)
	for _, n := range survivors {
		s := n.faulty.Stats()
		injected += s.SendDropped + s.RecvDropped
	}
	if injected == 0 {
		t.Fatal("fault injector never dropped a frame at 5% loss")
	}
}

// TestStalledPeerDoesNotStallDispatch: a peer that stops reading entirely
// (its inbox full, never calling Recv) may delay its own outbox worker by
// at most the configured send deadline per attempt — and must not delay
// the tracker's dispatch loop at all. Before the outbox existed, each
// send to the stalled peer froze Run for the full timeout.
func TestStalledPeerDoesNotStallDispatch(t *testing.T) {
	t.Parallel()
	content := randContent(300)
	h := startChurnHarness(t, 8, 2, content, func(cfg *TrackerConfig) {
		cfg.SendDeadline = 100 * time.Millisecond
	})
	// A peer that never reads: its 256-frame buffer fills, then every
	// further send blocks until the sender's deadline.
	if _, err := h.net.Endpoint("stalled"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		h.tracker.sendControl(h.ctx, "stalled", MsgError, ErrorMsg{Reason: "clog"})
	}

	// With the stalled peer's outbox saturated and its worker wedged in
	// deadline-bounded retries, a fresh join must still complete quickly:
	// dispatch never waits on the stalled peer.
	start := time.Now()
	h.join(t, "healthy", nil)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("join took %v behind a stalled peer; dispatch is being blocked", elapsed)
	}
}

// TestCompletedCountDropsOnLeaveAndSweep: the tracker must forget a
// node's completion record when the node leaves gracefully AND when it is
// repaired away, or CompletedCount grows without bound under churn.
func TestCompletedCountDropsOnLeaveAndSweep(t *testing.T) {
	t.Parallel()
	content := randContent(300)
	h := startChurnHarness(t, 8, 2, content, nil)
	a := h.join(t, "a", nil)
	b := h.join(t, "b", nil)
	waitComplete(t, a.node, 30*time.Second)
	waitComplete(t, b.node, 30*time.Second)

	waitFor(t, 5*time.Second, "both completion records", func() bool {
		return h.tracker.CompletedCount() == 2
	})

	// Graceful leave must drop b's completion record.
	if err := b.node.Leave(h.ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.node.Left():
	case <-time.After(5 * time.Second):
		t.Fatal("leave never acknowledged")
	}
	waitFor(t, 5*time.Second, "completion record dropped on leave", func() bool {
		return h.tracker.CompletedCount() == 1
	})

	// A crash (lease sweep -> Fail+Repair) must drop a's record too.
	h.crash(a)
	waitFor(t, 10*time.Second, "completion record dropped on sweep", func() bool {
		return h.tracker.CompletedCount() == 0
	})
}

// TestSpuriousGoodbyeAckIgnored: an unsolicited MsgGoodbyeAck must not
// tear down a node that never called Leave, and a duplicate ack must not
// panic on a double close of the Left channel.
func TestSpuriousGoodbyeAckIgnored(t *testing.T) {
	t.Parallel()
	content := randContent(300)
	s := startSession(t, 1, content)
	node := s.nodes[0]

	ack, err := EncodeControl(MsgGoodbyeAck, GoodbyeAck{})
	if err != nil {
		t.Fatal(err)
	}
	prober, err := s.net.Endpoint("prober")
	if err != nil {
		t.Fatal(err)
	}
	defer prober.Close()
	// Two spurious acks: the first would previously have torn down Run,
	// the second would have panicked closing leftCh twice.
	for i := 0; i < 2; i++ {
		if err := prober.Send(context.Background(), nodeAddr(0), ack); err != nil {
			t.Fatal(err)
		}
	}
	// The node must still be running despite the spurious acks: a torn-down
	// Run could never finish the download, so completion is the
	// deterministic proof both acks were processed and ignored (a double
	// close of Left() would additionally panic the run loop).
	waitComplete(t, node, 30*time.Second)
	select {
	case <-node.Left():
		t.Fatal("spurious ack closed Left()")
	default:
	}

	// A genuine leave still works after spurious acks were ignored.
	if err := node.Leave(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-node.Left():
	case <-time.After(5 * time.Second):
		t.Fatal("genuine leave never acknowledged")
	}
}

// TestRejoinRejectionDoesNotWedgeRun scripts a tracker through join →
// expelled → re-join welcome → expelled → error. The re-join welcome fills
// the one-slot Joined channel that nobody reads any more, so the error's
// rejection must not block on it: Run has to return the rejection, as it
// does for a node rejected on its first hello.
func TestRejoinRejectionDoesNotWedgeRun(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	tracker, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.Endpoint("node")
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(ep, NodeConfig{TrackerAddr: "tracker", Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- node.Run(ctx) }()

	send := func(typ MsgType, msg any) {
		t.Helper()
		frame, err := EncodeControl(typ, msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tracker.Send(ctx, "node", frame); err != nil {
			t.Fatal(err)
		}
	}
	// welcomeNextHello answers the node's next hello; leases, stats and
	// retried hellos in between are ignored.
	welcomeNextHello := func() {
		t.Helper()
		rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
		defer rcancel()
		for {
			_, frame, err := tracker.Recv(rctx)
			if err != nil {
				t.Fatalf("no hello: %v", err)
			}
			if typ, _, err := SplitControl(frame); err == nil && typ == MsgHello {
				break
			}
		}
		send(MsgWelcome, Welcome{ID: 1, K: 1, Degree: 1, Threads: []int{0},
			Session: SessionParams{FieldBits: 8, GenSize: 4, PacketSize: 16, ContentLen: 64}})
	}
	joined := func() bool { return node.Health().Joined }

	welcomeNextHello()
	if err := <-node.Joined(); err != nil {
		t.Fatal(err)
	}
	send(MsgExpelled, Expelled{ID: 1})
	welcomeNextHello()
	waitFor(t, 5*time.Second, "re-join", joined)
	send(MsgExpelled, Expelled{ID: 1})
	waitFor(t, 5*time.Second, "second expulsion", func() bool { return !joined() })
	send(MsgError, ErrorMsg{Reason: "stale congest reply"})

	select {
	case err := <-runDone:
		if err == nil || !strings.Contains(err.Error(), "join rejected") {
			t.Fatalf("Run returned %v, want the join rejection", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run wedged on a rejection after a re-join")
	}
}

// TestMalformedControlChurn floods a live tracker with a seeded stream of
// random, truncated, mistyped, hostile-length, legacy-JSON and
// wrong-direction control frames from many addresses, interleaved with
// real hellos. The tracker must stay up, admit every real joiner, create
// no row for any garbage frame, and keep its invariants.
func TestMalformedControlChurn(t *testing.T) {
	t.Parallel()
	const (
		joiners   = 200
		senders   = 32
		perSender = 200
	)
	tr, net := newAdmissionTracker(t, 16, 2)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = tr.Run(ctx) }()
	var drains sync.WaitGroup
	t.Cleanup(func() {
		cancel()
		<-runDone
		drains.Wait()
	})

	// Messages a node sends the tracker, which it acts on when well formed.
	// A well-formed one is not garbage, so the stream skips it; the other
	// types travel tracker to node, and the tracker ignores them.
	trackerBound := map[MsgType]bool{MsgHello: true, MsgGoodbye: true, MsgComplaint: true,
		MsgComplete: true, MsgCongested: true, MsgUncongested: true, MsgLease: true, MsgStatsReport: true}
	actedOn := func(frame []byte) bool {
		typ, body, err := SplitControl(frame)
		return err == nil && trackerBound[typ] && UnmarshalControl(typ, body, newControl(typ)) == nil
	}
	var fixtures, wrongWay [][]byte
	for _, fx := range controlFixtures() {
		frame, err := EncodeControl(fx.typ, fx.msg)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, frame)
		if !trackerBound[fx.typ] {
			wrongWay = append(wrongWay, frame)
		}
	}
	hostile := hostileControlFrames(t)
	legacy := append([]byte{frameControl}, `{"t":1,"p":{"addr":"x"}}`...)
	nextGarbage := func(rng *rand.Rand) (string, []byte) {
		for {
			var class string
			var f []byte
			switch rng.Intn(6) {
			case 0:
				class, f = "random", make([]byte, rng.Intn(48))
				rng.Read(f)
				if len(f) > 0 && rng.Intn(2) == 0 {
					f[0] = frameControl
				}
			case 1:
				fx := fixtures[rng.Intn(len(fixtures))]
				class, f = "truncated", fx[:rng.Intn(len(fx))]
			case 2:
				class, f = "mistyped", append([]byte(nil), fixtures[rng.Intn(len(fixtures))]...)
				f[1] = byte(rng.Intn(256))
			case 3:
				class, f = "hostile", hostile[rng.Intn(len(hostile))].frame
			case 4:
				class, f = "legacy", legacy
			default:
				class, f = "wrong-way", wrongWay[rng.Intn(len(wrongWay))]
			}
			if !actedOn(f) {
				return class, f
			}
		}
	}

	// join sends one hello from ep and returns the id its welcome carries.
	// The hello carries a deadline, so it waits for room in the flooded
	// tracker's queue instead of being dropped after QueueWait.
	join := func(ep transport.Endpoint, addr string) uint64 {
		hello, err := EncodeControl(MsgHello, Hello{Addr: addr})
		if err != nil {
			t.Error(err)
			return 0
		}
		rctx, rcancel := context.WithTimeout(ctx, 30*time.Second)
		defer rcancel()
		if err := ep.Send(rctx, "tracker", hello); err != nil {
			t.Errorf("hello from %s: %v", addr, err)
			return 0
		}
		for {
			_, frame, err := ep.Recv(rctx)
			if err != nil {
				t.Errorf("no welcome for %s: %v", addr, err)
				return 0
			}
			var w Welcome
			if typ, body, err := SplitControl(frame); err == nil && typ == MsgWelcome &&
				UnmarshalControl(typ, body, &w) == nil {
				return w.ID
			}
		}
	}

	var wg sync.WaitGroup
	counts := make([]map[string]int, senders)
	for i := 0; i < senders; i++ {
		ep, err := net.Endpoint(fmt.Sprintf("g%d", i))
		if err != nil {
			t.Fatal(err)
		}
		// Garbage senders read and discard whatever the tracker answers
		// (echoes, expulsions), so its sends to them never stall.
		drains.Add(1)
		go func() {
			defer drains.Done()
			for {
				if _, _, err := ep.Recv(ctx); err != nil {
					return
				}
			}
		}()
		counts[i] = make(map[string]int)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A deadline, so no garbage frame is dropped on a full queue.
			sctx, scancel := context.WithTimeout(ctx, 30*time.Second)
			defer scancel()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			for j := 0; j < perSender; j++ {
				class, f := nextGarbage(rng)
				counts[i][class]++
				if err := ep.Send(sctx, "tracker", f); err != nil {
					t.Errorf("garbage from g%d: %v", i, err)
					return
				}
			}
		}(i)
	}
	ids := make(chan uint64, joiners)
	real := map[string]bool{"sentinel": true}
	for i := 0; i < joiners; i++ {
		addr := fmt.Sprintf("j%d", i)
		real[addr] = true
		ep, err := net.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids <- join(ep, addr)
		}()
	}
	wg.Wait()
	close(ids)

	seen := make(map[uint64]bool, joiners)
	for id := range ids {
		if id == 0 || seen[id] {
			t.Fatalf("joiner welcomed with id %d (seen before: %v)", id, seen[id])
		}
		seen[id] = true
	}
	// The fabric is FIFO, so once the sentinel is welcomed every garbage
	// frame sent before it has been through the tracker.
	sentinel, err := net.Endpoint("sentinel")
	if err != nil {
		t.Fatal(err)
	}
	if id := join(sentinel, "sentinel"); id == 0 || seen[id] {
		t.Fatalf("sentinel welcomed with id %d", id)
	}
	select {
	case <-runDone:
		t.Fatal("tracker stopped under malformed control traffic")
	default:
	}
	if n := tr.NumNodes(); n != joiners+1 {
		t.Fatalf("population = %d, want %d real joiners", n, joiners+1)
	}
	tr.mu.Lock()
	for addr := range tr.idOf {
		if !real[addr] {
			t.Errorf("row for %q, which sent only garbage", addr)
		}
	}
	tr.mu.Unlock()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	total := make(map[string]int)
	for _, c := range counts {
		for class, n := range c {
			total[class] += n
		}
	}
	for _, class := range []string{"random", "truncated", "mistyped", "hostile", "legacy", "wrong-way"} {
		if total[class] == 0 {
			t.Errorf("no %s frames sent", class)
		}
	}
}
