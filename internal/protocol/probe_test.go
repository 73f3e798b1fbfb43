package protocol

import (
	"context"
	"sync"
	"testing"
	"time"

	"ncast/internal/gf"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// TestLinkProbesFollowHeldThreads: a node probes only the parents of the
// threads it holds. Once the tracker drops thread 1, a keepalive and a data
// frame still in flight from the old parent on that thread must not bring
// the parent entry back — the old parent, redirected elsewhere, would
// count the probes as upstream liveness and mask a dead parent of its
// own — while probes on the held thread 0 continue. Thread numbers on
// frames are the sender's to choose: a data frame and a probe keepalive on
// thread 0x7fff, the largest the 15-bit field carries, and on thread 5,
// which the node never held, make no thread record, draw no probe and do
// not panic. The tracker and the parent are scripted endpoints.
func TestLinkProbesFollowHeldThreads(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	endpoint := func(addr string) transport.Endpoint {
		ep, err := net.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	tracker, parent := endpoint("tracker"), endpoint("parent")
	node := NewNode(endpoint("node"), NodeConfig{
		TrackerAddr:      "tracker",
		ComplaintTimeout: 40 * time.Millisecond, // a probe round every 10ms
		Seed:             1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	wg.Add(2)
	go func() { defer wg.Done(); _ = node.Run(ctx) }()
	// The scripted tracker welcomes the first hello onto threads 0 and 1
	// and swallows everything else (hello retries, complaints, leases).
	go func() {
		defer wg.Done()
		welcomed := false
		for {
			_, frame, err := tracker.Recv(ctx)
			if err != nil {
				return
			}
			if typ, _, err := SplitControl(frame); err != nil || typ != MsgHello || welcomed {
				continue
			}
			welcomed = true
			w, err := EncodeControl(MsgWelcome, Welcome{ID: 1, K: 2, Degree: 2, Threads: []int{0, 1},
				Session: SessionParams{FieldBits: 8, GenSize: 4, PacketSize: 8, ContentLen: 32}})
			if err != nil {
				t.Error(err)
				return
			}
			if err := tracker.Send(ctx, "node", w); err != nil {
				return
			}
		}
	}()
	select {
	case err := <-node.Joined():
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("join timeout")
	}

	send := func(from transport.Endpoint, frame []byte) {
		t.Helper()
		if err := from.Send(ctx, "node", frame); err != nil {
			t.Fatal(err)
		}
	}
	seq := map[int]int32{}
	sendData := func(th int) {
		t.Helper()
		p := &rlnc.Packet{Gen: 0, Coeff: []byte{1, 0, 0, 0}, Payload: make([]byte, 8)}
		send(parent, EncodeDataSeq(gf.F256, th, seq[th], 1, TraceContext{}, p))
		seq[th]++
	}
	// nextProbe returns the next probe keepalive the parent receives,
	// skipping the node's echoes.
	nextProbe := func() KeepaliveInfo {
		t.Helper()
		for {
			rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
			_, frame, err := parent.Recv(rctx)
			rcancel()
			if err != nil {
				t.Fatalf("parent heard no probe: %v", err)
			}
			if ki, err := DecodeKeepaliveEcho(frame); err == nil && ki.IsProbe() {
				return ki
			}
		}
	}

	// The parent feeds both threads; the node must probe it on both.
	sendData(0)
	sendData(1)
	for probed := map[int]bool{}; !probed[0] || !probed[1]; {
		probed[nextProbe().Thread] = true
	}

	// The tracker drops thread 1, then the old parent's heartbeat and one
	// more data frame on it arrive — same inbound queue, so in that order.
	received, _ := node.Stats()
	dropped, err := EncodeControl(MsgThreadDropped, ThreadDropped{Thread: 1})
	if err != nil {
		t.Fatal(err)
	}
	send(tracker, dropped)
	send(parent, EncodeKeepaliveEcho(1, time.Now().UnixNano(), 0, 0))
	sendData(1)
	for _, th := range []int{0x7fff, 5} {
		send(parent, EncodeKeepaliveEcho(th, time.Now().UnixNano(), 0, 0))
		sendData(th)
	}
	waitFor(t, 5*time.Second, "the stale and foreign frames to be absorbed", func() bool {
		n, _ := node.Stats()
		return n >= received+3
	})
	absorbed := time.Now().UnixNano()

	// Over the next five probe rounds only thread 0 is probed. One thread-1
	// probe from a round snapshotted before the drop may still be in flight.
	stale := 0
	for rounds := 0; rounds < 5; {
		ki := nextProbe()
		switch {
		case ki.TxNanos <= absorbed:
			continue
		case ki.Thread == 0:
			rounds++
		case ki.Thread == 1:
			stale++
		default:
			t.Fatalf("node probed the parent on thread %#x, which it never held", ki.Thread)
		}
	}
	if stale > 1 {
		t.Fatalf("node kept probing its former parent on dropped thread 1: %d probes", stale)
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	if len(node.table) != 1 || node.table[0].th != 0 {
		t.Fatalf("thread records %+v, want thread 0's alone", node.table)
	}
}
