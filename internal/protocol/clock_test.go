package protocol

import (
	"context"
	"testing"
	"time"

	"ncast/internal/obs"
	"ncast/internal/transport"
)

// The node's periodic duties (hello and good-bye retries, complaints,
// keepalives and probes, lease renewal, stats reports) share one clock
// goroutine. These tests pin what that sharing must not break, each
// against a scripted tracker endpoint.

// scriptedWelcome puts the node alone on thread 0 of a one-thread
// session, with leases and stats reports off.
var scriptedWelcome = Welcome{ID: 1, K: 1, Degree: 1, Threads: []int{0},
	Session: SessionParams{FieldBits: 8, GenSize: 4, PacketSize: 16, ContentLen: 64}}

// joinScripted runs a node at "node" against the scripted tracker
// endpoint "tracker" on net, answers its hello with scriptedWelcome and
// waits for the join. stop cancels Run and returns once Run has; it also
// runs at cleanup.
func joinScripted(t *testing.T, net *transport.Network, cfg NodeConfig) (node *Node, tracker transport.Endpoint, stop func()) {
	t.Helper()
	return joinScriptedWith(t, net, cfg, scriptedWelcome)
}

// joinScriptedWith is joinScripted with the welcome w, sent after the
// redirects pre.
func joinScriptedWith(t *testing.T, net *transport.Network, cfg NodeConfig, w Welcome, pre ...Redirect) (node *Node, tracker transport.Endpoint, stop func()) {
	t.Helper()
	tracker, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.Endpoint("node")
	if err != nil {
		t.Fatal(err)
	}
	cfg.TrackerAddr = "tracker"
	node = NewNode(ep, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = node.Run(ctx) }()
	stop = func() { cancel(); <-runDone }
	t.Cleanup(stop)

	nextControl(t, tracker, MsgHello)
	for _, r := range pre {
		sendControl(t, tracker, "node", MsgRedirect, r)
	}
	sendControl(t, tracker, "node", MsgWelcome, w)
	select {
	case err := <-node.Joined():
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("join timeout")
	}
	return node, tracker, stop
}

// nextControl returns the body of the next control message of type typ
// that ep receives, skipping every other frame.
func nextControl(t *testing.T, ep transport.Endpoint, typ MsgType) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		_, frame, err := ep.Recv(ctx)
		if err != nil {
			t.Fatalf("no message of type %d: %v", typ, err)
		}
		if got, body, err := SplitControl(frame); err == nil && got == typ {
			return body
		}
	}
}

// newEndpoint registers addr on net.
func newEndpoint(t *testing.T, net *transport.Network, addr string) transport.Endpoint {
	t.Helper()
	ep, err := net.Endpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// fillQueue stalls the endpoint at addr, which must not be reading: from
// sends to it until its queue is full, so every later send to it waits.
func fillQueue(t *testing.T, from transport.Endpoint, addr string) {
	t.Helper()
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		err := from.Send(ctx, addr, []byte{0xff})
		cancel()
		if err != nil {
			return
		}
	}
}

func sendControl(t *testing.T, from transport.Endpoint, to string, typ MsgType, msg any) {
	t.Helper()
	frame, err := EncodeControl(typ, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := from.Send(context.Background(), to, frame); err != nil {
		t.Fatal(err)
	}
}

// TestGoodbyeRetriesEndWithRun: a node that said good-bye re-sends it
// until the ack arrives, but only while Run lives. A node cancelled before
// the ack, by a caller that passed Leave a context that never ends, must
// fall silent once Run has returned.
func TestGoodbyeRetriesEndWithRun(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	node, tracker, stop := joinScripted(t, net, NodeConfig{Seed: 1})

	if err := node.Leave(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The tracker never acks: the first good-bye and then a retry arrive.
	nextControl(t, tracker, MsgGoodbye)
	nextControl(t, tracker, MsgGoodbye)
	stop()

	// Drain what the node sent before Run returned; after that the tracker
	// must hear no good-bye for three retry periods.
	for {
		ctx, cancel := context.WithTimeout(context.Background(), transport.QueueWait)
		_, _, err := tracker.Recv(ctx)
		cancel()
		if err != nil {
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*retryEvery)
	defer cancel()
	for {
		_, frame, err := tracker.Recv(ctx)
		if err != nil {
			return
		}
		if typ, _, err := SplitControl(frame); err == nil && typ == MsgGoodbye {
			t.Fatal("good-bye re-sent after Run returned")
		}
	}
}

// TestComplaintTimeoutClamp: a ComplaintTimeout of 1 ns halves and
// quarters to zero, which must neither panic nor stall the clock; the
// duties run at the 1 ms floor and the node still complains about its
// silent parent.
func TestComplaintTimeoutClamp(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	_, tracker, _ := joinScripted(t, net, NodeConfig{ComplaintTimeout: 1, Seed: 1})

	var c Complaint
	if err := UnmarshalControl(MsgComplaint, nextControl(t, tracker, MsgComplaint), &c); err != nil {
		t.Fatal(err)
	}
	if c.ID != scriptedWelcome.ID || c.Thread != 0 {
		t.Fatalf("complaint %+v, want node %d on thread 0", c, scriptedWelcome.ID)
	}
}

// TestStalledTrackerKeepsKeepalives: a tracker that stops reading blocks
// every control send the node makes (here its complaints about a silent
// parent). Those sends share the clock with the keepalives, so each duty
// run is bounded; the node's child must keep hearing from it often enough
// never to complain about a healthy parent.
func TestStalledTrackerKeepsKeepalives(t *testing.T) {
	t.Parallel()
	const timeout = 40 * time.Millisecond
	net := transport.NewNetwork()
	defer net.Close()
	child, err := net.Endpoint("child")
	if err != nil {
		t.Fatal(err)
	}
	filler, err := net.Endpoint("filler")
	if err != nil {
		t.Fatal(err)
	}
	_, tracker, _ := joinScripted(t, net, NodeConfig{ComplaintTimeout: timeout, Seed: 1})
	sendControl(t, tracker, "node", MsgRedirect, Redirect{Thread: 0, ChildAddr: "child"})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if _, _, err := child.Recv(ctx); err != nil {
		t.Fatalf("child never heard from the node: %v", err)
	}
	cancel()

	// The tracker has stopped reading; fill its queue so every control
	// send to it blocks.
	fillQueue(t, filler, "tracker")

	const window = 400 * time.Millisecond
	ctx, cancel = context.WithTimeout(context.Background(), window)
	defer cancel()
	prev, frames := time.Now(), 0
	var worst time.Duration
	for {
		_, _, err := child.Recv(ctx)
		now := time.Now()
		worst = max(worst, now.Sub(prev))
		prev = now
		if err != nil {
			break
		}
		frames++
	}
	// Keepalives are due every timeout/4; a child complains once a parent
	// has been silent for the whole timeout. Bounding the gap by the
	// timeout, not a fraction of it, keeps a host timer stall of a few
	// tens of ms from failing a run, while an unbounded duty blocked
	// behind the tracker holds the clock for at least QueueWait (50 ms).
	if worst >= timeout {
		t.Fatalf("child went %v without a frame (%d frames in %v); want under %v",
			worst, frames, window, timeout)
	}
}

// TestStalledTrackerFirstHelloRetried: the hello Run sends first, into a
// tracker queue that is full, is dropped after transport.QueueWait rather
// than blocking Run. Run goes on, and once the tracker reads again the
// clock's re-sent hello gets the node in.
func TestStalledTrackerFirstHelloRetried(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	tracker, filler, ep := newEndpoint(t, net, "tracker"), newEndpoint(t, net, "filler"), newEndpoint(t, net, "node")
	fillQueue(t, filler, "tracker")
	m := obs.NewTransportMetrics(obs.NewRegistry(), "node")
	transport.Instrument(ep, m)
	node := NewNode(ep, NodeConfig{TrackerAddr: "tracker", Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = node.Run(ctx) }()
	defer func() { cancel(); <-runDone }()

	waitFor(t, 5*time.Second, "the first hello to be dropped", func() bool { return m.Drops.Value() > 0 })
	nextControl(t, tracker, MsgHello) // skips the filler's frames
	sendControl(t, tracker, "node", MsgWelcome, scriptedWelcome)
	select {
	case err := <-node.Joined():
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("join timeout")
	}
}

// TestFirstHelloRetriedAfterFailedDial: over TCP, a first hello whose dial
// fails (here nothing listens at the tracker's address yet) does not end
// Run. The clock's re-sent hello reaches the tracker once it listens.
func TestFirstHelloRetriedAfterFailedDial(t *testing.T) {
	t.Parallel()
	probe, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close() // the tracker takes this address below
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	node := NewNode(ep, NodeConfig{TrackerAddr: addr, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- node.Run(ctx) }()
	select {
	case err := <-runErr:
		cancel()
		t.Fatalf("Run ended after its first hello failed: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	defer func() { cancel(); <-runErr }()

	tracker, err := transport.ListenTCP(addr)
	if err != nil {
		t.Skipf("the tracker's address was taken meanwhile: %v", err)
	}
	defer tracker.Close()
	nextControl(t, tracker, MsgHello)
	sendControl(t, tracker, ep.Addr(), MsgWelcome, scriptedWelcome)
	select {
	case err := <-node.Joined():
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("join timeout")
	}
}
