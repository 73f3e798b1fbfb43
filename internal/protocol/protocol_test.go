package protocol

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ncast/internal/gf"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

func TestControlEncodeDecode(t *testing.T) {
	t.Parallel()
	frame, err := EncodeControl(MsgHello, Hello{Addr: "n1", Degree: 3})
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err := DecodeControl(frame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgHello {
		t.Fatalf("type = %d", typ)
	}
	if !bytes.Contains(payload, []byte(`"n1"`)) {
		t.Fatalf("payload = %s", payload)
	}
	if IsData(frame) {
		t.Fatal("control frame classified as data")
	}
	if _, _, err := DecodeControl([]byte{frameData, 0}); err == nil {
		t.Fatal("data frame decoded as control")
	}
	if _, _, err := DecodeControl(nil); err == nil {
		t.Fatal("empty frame decoded as control")
	}
}

func TestDataEncodeDecode(t *testing.T) {
	t.Parallel()
	p := &rlnc.Packet{Gen: 3, Coeff: []byte{1, 0, 2}, Payload: []byte{9, 8, 7, 6}}
	frame := EncodeDataSeq(gf.F256, 5, 0, 0, TraceContext{}, p)
	if !IsData(frame) {
		t.Fatal("data frame not classified as data")
	}
	th, _, emit, _, q, err := DecodeDataSeq(gf.F256, frame)
	if err != nil {
		t.Fatal(err)
	}
	if th != 5 || emit != 0 || q.Gen != 3 || !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("decoded %d %d %+v", th, emit, q)
	}
	if _, _, _, _, _, err := DecodeDataSeq(gf.F256, []byte{frameControl, 'x'}); err == nil {
		t.Fatal("control frame decoded as data")
	}
}

func TestStampedDataEncodeDecode(t *testing.T) {
	t.Parallel()
	p := &rlnc.Packet{Gen: 7, Coeff: []byte{0, 1, 3}, Payload: []byte{1, 2, 3, 4}}
	const stamp = int64(1_700_000_000_123_456_789)
	frame := EncodeDataSeq(gf.F256, 9, 0, stamp, TraceContext{}, p)
	if !IsData(frame) {
		t.Fatal("stamped data frame not classified as data")
	}
	th, _, emit, _, q, err := DecodeDataSeq(gf.F256, frame)
	if err != nil {
		t.Fatal(err)
	}
	if th != 9 || emit != stamp || q.Gen != 7 || !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("decoded %d %d %+v", th, emit, q)
	}
	// A truncated stamped frame must fail loudly, not misparse the stamp.
	if _, _, _, _, _, err := DecodeDataSeq(gf.F256, frame[:8]); err == nil {
		t.Fatal("truncated stamped frame decoded")
	}
}

func TestSessionParamsField(t *testing.T) {
	t.Parallel()
	for bits, want := range map[int]string{1: "GF(2)", 8: "GF(256)", 16: "GF(65536)"} {
		f, err := SessionParams{FieldBits: bits}.Field()
		if err != nil {
			t.Fatal(err)
		}
		if f.Name() != want {
			t.Fatalf("bits %d -> %s", bits, f.Name())
		}
	}
	if _, err := (SessionParams{FieldBits: 7}).Field(); err == nil {
		t.Fatal("bad field bits accepted")
	}
}

// session spins up a tracker + source over an in-memory network and joins
// n nodes, returning everything needed by the integration tests.
type session struct {
	net     *transport.Network
	tracker *Tracker
	source  *Source
	nodes   []*Node
	cancel  context.CancelFunc
	wg      *sync.WaitGroup
	content []byte
}

func startSession(t *testing.T, n int, content []byte, opts ...transport.NetworkOption) *session {
	return startSessionKD(t, n, 8, 2, content, opts...)
}

func startSessionKD(t *testing.T, n, k, d int, content []byte, opts ...transport.NetworkOption) *session {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	net := transport.NewNetwork(opts...)
	var wg sync.WaitGroup

	trackerEP, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	params := rlnc.Params{Field: gf.F256, GenSize: 8, PacketSize: 32}
	source, err := NewSource(trackerEP, k, params, content, 42)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := NewTracker(trackerEP, source, TrackerConfig{
		K: k, D: d,
		Session: source.Session(),
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(2)
	go func() { defer wg.Done(); _ = tracker.Run(ctx) }()
	go func() { defer wg.Done(); _ = source.Run(ctx) }()

	s := &session{net: net, tracker: tracker, source: source, cancel: cancel, wg: &wg, content: content}
	for i := 0; i < n; i++ {
		s.nodes = append(s.nodes, s.addNode(t, ctx, i))
	}
	t.Cleanup(func() {
		// Whatever the test did to the overlay, the matrix and the
		// tracker's bookkeeping must still satisfy the §3 invariants.
		if err := tracker.CheckInvariants(); err != nil {
			t.Errorf("tracker invariants at teardown: %v", err)
		}
		cancel()
		net.Close()
		wg.Wait()
	})
	return s
}

func (s *session) addNode(t *testing.T, ctx context.Context, i int) *Node {
	t.Helper()
	ep, err := s.net.Endpoint(nodeAddr(i))
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(ep, NodeConfig{
		TrackerAddr:      "tracker",
		ComplaintTimeout: 200 * time.Millisecond,
		Seed:             int64(100 + i),
	})
	s.wg.Add(1)
	go func() { defer s.wg.Done(); _ = node.Run(ctx) }()
	select {
	case err := <-node.Joined():
		if err != nil {
			t.Fatalf("node %d join: %v", i, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("node %d join timed out", i)
	}
	return node
}

func nodeAddr(i int) string { return "node" + string(rune('A'+i)) }

func randContent(n int) []byte {
	r := rand.New(rand.NewSource(99))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func waitComplete(t *testing.T, n *Node, within time.Duration) {
	t.Helper()
	select {
	case <-n.Completed():
	case <-time.After(within):
		t.Fatalf("node %d incomplete after %v (progress %.2f)", n.ID(), within, n.Progress())
	}
}

func TestSingleNodeBroadcast(t *testing.T) {
	t.Parallel()
	content := randContent(500)
	s := startSession(t, 1, content)
	waitComplete(t, s.nodes[0], 10*time.Second)
	got, err := s.nodes[0].Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
	if s.tracker.NumNodes() != 1 {
		t.Fatalf("tracker nodes = %d", s.tracker.NumNodes())
	}
}

func TestMultiNodeBroadcastThroughOverlay(t *testing.T) {
	t.Parallel()
	content := randContent(2000)
	s := startSession(t, 8, content)
	for _, n := range s.nodes {
		waitComplete(t, n, 20*time.Second)
		got, err := n.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("node %d content mismatch", n.ID())
		}
	}
	// The tracker processes Complete messages asynchronously.
	waitFor(t, 5*time.Second, "all 8 completion reports", func() bool {
		return s.tracker.CompletedCount() == 8
	})
	// Later nodes actually received forwarded (recoded) traffic: every
	// node received at least GenSize*gens innovative packets.
	for _, n := range s.nodes {
		_, innovative := n.Stats()
		if innovative < 8 {
			t.Fatalf("node %d innovative = %d", n.ID(), innovative)
		}
	}
}

func TestGracefulLeaveKeepsOthersAlive(t *testing.T) {
	t.Parallel()
	content := randContent(1500)
	s := startSession(t, 5, content)
	ctx := context.Background()
	// Let the session warm up, then node 1 (an early joiner, hence a
	// parent of later nodes) leaves gracefully.
	waitComplete(t, s.nodes[0], 20*time.Second)
	if err := s.nodes[1].Leave(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.nodes[1].Left():
	case <-time.After(5 * time.Second):
		t.Fatal("leave not acknowledged")
	}
	// Everyone else still completes.
	for _, n := range []*Node{s.nodes[2], s.nodes[3], s.nodes[4]} {
		waitComplete(t, n, 20*time.Second)
		got, err := n.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch after leave")
		}
	}
	if s.tracker.NumNodes() != 4 {
		t.Fatalf("tracker nodes = %d, want 4", s.tracker.NumNodes())
	}
}

func TestCrashRepairViaComplaints(t *testing.T) {
	t.Parallel()
	content := randContent(1200)
	// k = d = 2 forces a chain: server -> n0 -> n1 -> n2 -> n3, so the
	// crashed head is deterministically everyone's upstream and n1 is
	// guaranteed to be its direct child.
	s := startSessionKD(t, 4, 2, 2, content)
	// Crash node 0 without a goodbye: close its endpoint so its streams
	// go silent mid-download.
	s.net.CloseEndpoint(nodeAddr(0))
	// The children detect silence, complain, and the tracker splices the
	// dead node out; the remaining nodes finish the download.
	for _, n := range s.nodes[1:] {
		waitComplete(t, n, 30*time.Second)
		got, err := n.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch after crash repair")
		}
	}
	// The tracker eventually repaired (removed) the crashed node.
	waitFor(t, 10*time.Second, "crashed node repaired away", func() bool {
		return s.tracker.NumNodes() == 3
	})
}

func TestBroadcastOverLossyNetwork(t *testing.T) {
	t.Parallel()
	content := randContent(800)
	// 5% frame loss: ergodic failures per §2; RLNC absorbs them.
	s := startSession(t, 4, content, transport.WithLoss(0.05), transport.WithSeed(5))
	for _, n := range s.nodes {
		waitComplete(t, n, 30*time.Second)
		got, err := n.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch over lossy network")
		}
	}
}

func TestJoinRejectionBadDegree(t *testing.T) {
	t.Parallel()
	content := randContent(100)
	s := startSession(t, 1, content)
	ep, err := s.net.Endpoint("greedy")
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(ep, NodeConfig{TrackerAddr: "tracker", Degree: 99, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = node.Run(ctx) }()
	select {
	case err := <-node.Joined():
		if err == nil {
			t.Fatal("degree 99 join accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no join response")
	}
}

func TestHeterogeneousDegreeJoin(t *testing.T) {
	t.Parallel()
	content := randContent(600)
	s := startSession(t, 2, content)
	ep, err := s.net.Endpoint("t1node")
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(ep, NodeConfig{TrackerAddr: "tracker", Degree: 6, Seed: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = node.Run(ctx) }()
	select {
	case err := <-node.Joined():
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("join timeout")
	}
	waitComplete(t, node, 20*time.Second)
	got, err := node.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch for high-degree node")
	}
}

func TestBroadcastOverTCP(t *testing.T) {
	t.Parallel()
	content := randContent(800)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// LIFO: cancel must run BEFORE wg.Wait so the goroutines can exit.
	defer wg.Wait()
	defer cancel()

	trackerEP, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer trackerEP.Close()
	params := rlnc.Params{Field: gf.F256, GenSize: 8, PacketSize: 64}
	source, err := NewSource(trackerEP, 6, params, content, 1)
	if err != nil {
		t.Fatal(err)
	}
	source.RoundInterval = time.Millisecond
	tracker, err := NewTracker(trackerEP, source, TrackerConfig{
		K: 6, D: 2, Session: source.Session(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(2)
	go func() { defer wg.Done(); _ = tracker.Run(ctx) }()
	go func() { defer wg.Done(); _ = source.Run(ctx) }()

	var nodes []*Node
	for i := 0; i < 3; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		node := NewNode(ep, NodeConfig{TrackerAddr: trackerEP.Addr(), Seed: int64(i)})
		wg.Add(1)
		go func() { defer wg.Done(); _ = node.Run(ctx) }()
		select {
		case err := <-node.Joined():
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("tcp join timeout")
		}
		nodes = append(nodes, node)
	}
	for _, n := range nodes {
		waitComplete(t, n, 30*time.Second)
		got, err := n.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch over TCP")
		}
	}
}

// TestSourceSystematicEmission pins the systematic schedule end to end:
// with Systematic on, a thread serving a generation emits its GenSize
// source packets uncoded (flagged, in index order) before any random
// combination, the flag survives the wire, and a decoder fed the capture
// recovers the content.
func TestSourceSystematicEmission(t *testing.T) {
	t.Parallel()
	params := rlnc.Params{Field: gf.F256, GenSize: 4, PacketSize: 32}
	content := randContent(params.GenSize * params.PacketSize) // one generation
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewNetwork()
	defer net.Close()
	srcEP, err := net.Endpoint("src")
	if err != nil {
		t.Fatal(err)
	}
	sinkEP, err := net.Endpoint("sink")
	if err != nil {
		t.Fatal(err)
	}
	source, err := NewSource(srcEP, 1, params, content, 5)
	if err != nil {
		t.Fatal(err)
	}
	source.Systematic = true
	source.RoundInterval = time.Millisecond
	source.SetChild(0, "sink")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = source.Run(ctx) }()
	defer wg.Wait()
	defer cancel()

	dec, err := rlnc.NewDecoder(params.Field, 0, params.GenSize, params.PacketSize)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []*rlnc.Packet
	for len(pkts) < params.GenSize+3 {
		rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
		_, frame, err := sinkEP.Recv(rctx)
		rcancel()
		if err != nil {
			t.Fatal(err)
		}
		if !IsData(frame) {
			continue
		}
		_, _, _, _, p, err := DecodeDataSeq(params.Field, frame)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	for i, p := range pkts {
		if i < params.GenSize {
			if !p.Sys || int(p.SysIdx) != i {
				t.Fatalf("packet %d: sys=%v idx=%d, want systematic index %d", i, p.Sys, p.SysIdx, i)
			}
		} else if p.Sys {
			t.Fatalf("packet %d still systematic after full pass", i)
		}
		if _, err := dec.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Source()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, row := range got {
		buf.Write(row)
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Fatal("decoded content mismatch")
	}
}
