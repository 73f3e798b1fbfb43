package protocol

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"ncast/internal/gf"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// TestJoinSurvivesHeavyLoss: the hello/welcome exchange must eventually
// succeed over a badly lossy fabric thanks to hello retries and the
// tracker's idempotent duplicate handling.
func TestJoinSurvivesHeavyLoss(t *testing.T) {
	t.Parallel()
	content := randContent(600)
	// 40% loss: single-shot handshakes would fail routinely.
	s := startSession(t, 0, content, transport.WithLoss(0.4), transport.WithSeed(11))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ep, err := s.net.Endpoint("latecomer")
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(ep, NodeConfig{
		TrackerAddr:      "tracker",
		ComplaintTimeout: 200 * time.Millisecond,
		Seed:             5,
	})
	s.wg.Add(1)
	go func() { defer s.wg.Done(); _ = node.Run(ctx) }()
	select {
	case err := <-node.Joined():
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("join never completed despite retries")
	}
	waitComplete(t, node, 60*time.Second)
	got, err := node.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch after lossy join")
	}
}

// TestDuplicateHelloGetsSameIdentity: a retried hello must not create a
// second overlay row.
func TestDuplicateHelloGetsSameIdentity(t *testing.T) {
	t.Parallel()
	content := randContent(300)
	s := startSession(t, 1, content)
	// Hand-roll a duplicate hello from the existing node's address.
	hello, err := EncodeControl(MsgHello, Hello{Addr: nodeAddr(0)})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := s.net.Endpoint("prober")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	// Forge the duplicate via a fresh endpoint: the tracker keys on the
	// Hello.Addr field, not the sender.
	if err := ep.Send(context.Background(), "tracker", hello); err != nil {
		t.Fatal(err)
	}
	// The tracker answers a duplicate hello by re-sending the original
	// welcome to the frame's sender. Receiving it here proves the hello
	// was fully processed — the deterministic point at which to check the
	// population, with no timing window to guess.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		_, frame, err := ep.Recv(ctx)
		if err != nil {
			t.Fatalf("welcome re-send never arrived: %v", err)
		}
		if typ, _, derr := SplitControl(frame); derr == nil && typ == MsgWelcome {
			break
		}
	}
	if n := s.tracker.NumNodes(); n != 1 {
		t.Fatalf("duplicate hello changed population to %d", n)
	}
}

// TestLayeredSessionOverProtocol drives the layered source + node through
// the raw protocol layer.
func TestLayeredSessionOverProtocol(t *testing.T) {
	t.Parallel()
	content := randContent(1024)
	ctx, cancel := context.WithCancel(context.Background())
	net := transport.NewNetwork()
	trackerEP, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	lp := rlnc.LayeredParams{
		Params:  rlnc.Params{Field: gf.F256, GenSize: 8, PacketSize: 32},
		Weights: []float64{2, 1},
	}
	source, err := NewLayeredSource(trackerEP, 8, lp, content, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !source.Session().Layered() {
		t.Fatal("layered source session not layered")
	}
	tracker, err := NewTracker(trackerEP, source, TrackerConfig{
		K: 8, D: 2, Session: source.Session(), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &session{net: net, tracker: tracker, source: source, cancel: cancel, wg: new(sync.WaitGroup), content: content}
	s.wg.Add(2)
	go func() { defer s.wg.Done(); _ = tracker.Run(ctx) }()
	go func() { defer s.wg.Done(); _ = source.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		net.Close()
		s.wg.Wait()
	})

	node := addWrappedNode(t, s, ctx, "viewer", nil)
	waitComplete(t, node, 30*time.Second)
	got, err := node.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("layered protocol content mismatch")
	}
	if node.CompletedLayers() != 2 {
		t.Fatalf("layers = %d, want 2", node.CompletedLayers())
	}
	base, err := node.Layer(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base, content[:512]) {
		t.Fatal("base layer mismatch")
	}
}
