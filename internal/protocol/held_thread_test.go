package protocol

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"ncast/internal/gf"
	"ncast/internal/transport"
)

// The node keeps one record per thread (heldThread). These tests pin
// what the record's lifetime must keep: the order beats go out in, a
// child named before the thread is held, and sequence numbers that
// outlive the record. Each runs against a scripted tracker.

// fourThreads puts the node on threads 0-3 of a one-generation session.
var fourThreads = Welcome{ID: 1, K: 4, Degree: 4, Threads: []int{0, 1, 2, 3},
	Session: scriptedWelcome.Session}

// recvFrame returns the next frame ep receives within a second.
func recvFrame(t *testing.T, ep transport.Endpoint) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, frame, err := ep.Recv(ctx)
	if err != nil {
		t.Fatalf("%s heard nothing: %v", ep.Addr(), err)
	}
	return frame
}

// TestHeldThreadBeatsReplay: keepalive beats go out in the order of the
// node's thread records, so two nodes with the same seed, welcome,
// children and inflow send each child byte-identical beats, coded frames
// whose coefficients both draw from their rngs in the same order.
func TestHeldThreadBeatsReplay(t *testing.T) {
	t.Parallel()
	const passes = 6
	beats := func() [][][]byte {
		net := transport.NewNetwork()
		defer net.Close()
		parent := newEndpoint(t, net, "parent")
		children := make([]transport.Endpoint, 4)
		for th := range children {
			children[th] = newEndpoint(t, net, fmt.Sprintf("child-%d", th))
		}
		// No ComplaintTimeout: the clock sends no beats of its own.
		node, tracker, stop := joinScriptedWith(t, net, NodeConfig{Seed: 7}, fourThreads)
		defer stop()
		for th := range children {
			sendControl(t, tracker, "node", MsgRedirect, Redirect{Thread: th, ChildAddr: fmt.Sprintf("child-%d", th)})
		}
		waitFor(t, 5*time.Second, "four children", func() bool {
			node.mu.Lock()
			defer node.mu.Unlock()
			for _, r := range node.table {
				if r.down.child == "" {
					return false
				}
			}
			return len(node.table) == 4
		})
		if err := parent.Send(context.Background(), "node", codedFrames(1)[0]); err != nil {
			t.Fatal(err)
		}
		forwarded := recvFrame(t, children[0])
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		got := make([][][]byte, len(children))
		for pass := 0; pass < passes; pass++ {
			node.keepalive(ctx)
			for th, ep := range children {
				frame := recvFrame(t, ep)
				if !IsData(frame) {
					t.Fatalf("pass %d: child %d got a probe, want a coded beat", pass, th)
				}
				got[th] = append(got[th], frame)
			}
		}
		got[0] = append([][]byte{forwarded}, got[0]...)
		return got
	}
	a, b := beats(), beats()
	for th := range a {
		for i := range a[th] {
			if !bytes.Equal(a[th][i], b[th][i]) {
				t.Fatalf("child %d, frame %d differs between two runs of the same seed", th, i)
			}
		}
	}
}

// TestHeldThreadRedirectBeforeWelcome: a redirect that overtakes the
// welcome giving its thread keeps its child. Once welcomed, the node
// forwards the thread's frames to that child and beats it.
func TestHeldThreadRedirectBeforeWelcome(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	parent, child := newEndpoint(t, net, "parent"), newEndpoint(t, net, "child")
	node, _, _ := joinScriptedWith(t, net, NodeConfig{Seed: 1}, scriptedWelcome,
		Redirect{Thread: 0, ChildAddr: "child"})
	if err := parent.Send(context.Background(), "node", codedFrames(1)[0]); err != nil {
		t.Fatal(err)
	}
	if frame := recvFrame(t, child); !IsData(frame) {
		t.Fatal("the child named before the welcome got no forwarded frame")
	}
	node.keepalive(context.Background())
	if frame := recvFrame(t, child); !IsData(frame) && !IsKeepalive(frame) {
		t.Fatal("the child named before the welcome got no beat")
	}
	node.mu.Lock()
	defer node.mu.Unlock()
	if len(node.table) != 1 || !node.table[0].held || node.table[0].down.child != "child" {
		t.Fatalf("thread records %+v, want thread 0 held with child", node.table)
	}
}

// TestHeldThreadSeqContinues: the node's outbound sequence numbers on a
// thread continue across ThreadDropped→ThreadAdded and across
// Expelled→re-join. Were they to restart at 0, the child's link tracker
// would count reorders where there was no loss, and the link plane's loss
// figure would go wrong.
func TestHeldThreadSeqContinues(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	parent, child := newEndpoint(t, net, "parent"), newEndpoint(t, net, "child")
	node, tracker, _ := joinScripted(t, net, NodeConfig{Seed: 1})
	frames := codedFrames(3)
	want := int32(0)
	// expect reads the child's next data frame and checks its sequence
	// number is the next one.
	expect := func(what string) {
		t.Helper()
		frame := recvFrame(t, child)
		_, seq, _, _, p, err := DecodeDataSeq(gf.F256, frame)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		p.Release()
		if seq != want {
			t.Fatalf("%s: sequence number %d, want %d", what, seq, want)
		}
		want++
	}
	feed := func(i int) {
		t.Helper()
		if err := parent.Send(context.Background(), "node", frames[i]); err != nil {
			t.Fatal(err)
		}
	}

	sendControl(t, tracker, "node", MsgRedirect, Redirect{Thread: 0, ChildAddr: "child"})
	feed(0)
	expect("the first forwarded frame")

	sendControl(t, tracker, "node", MsgThreadDropped, ThreadDropped{Thread: 0})
	sendControl(t, tracker, "node", MsgThreadAdded, ThreadAdded{Thread: 0, ChildAddr: "child"})
	expect("the catch-up burst after the thread came back")
	feed(1)
	expect("the frame forwarded after the thread came back")

	sendControl(t, tracker, "node", MsgExpelled, Expelled{ID: 1})
	nextControl(t, tracker, MsgHello)
	sendControl(t, tracker, "node", MsgWelcome, scriptedWelcome)
	sendControl(t, tracker, "node", MsgRedirect, Redirect{Thread: 0, ChildAddr: "child"})
	expect("the catch-up burst after the re-join")
	feed(2)
	expect("the frame forwarded after the re-join")
	node.mu.Lock()
	defer node.mu.Unlock()
	if len(node.seqs) != 1 {
		t.Fatalf("sequence counters %+v, want one for thread 0", node.seqs)
	}
}

// TestHeldThreadOutOfRangeControl: a redirect or a ThreadAdded naming a
// thread outside the data frame's 15-bit thread field makes no record, so
// the keepalive's generation rotation never indexes with it, and a
// welcome naming one is rejected.
func TestHeldThreadOutOfRangeControl(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	newEndpoint(t, net, "child")
	w := scriptedWelcome
	w.Session.ContentLen = 10 * w.Session.GenSize * w.Session.PacketSize // ten generations
	node, tracker, _ := joinScriptedWith(t, net, NodeConfig{Seed: 1}, w)
	for _, th := range []int{-1, 1 << 15} {
		sendControl(t, tracker, "node", MsgRedirect, Redirect{Thread: th, ChildAddr: "child"})
		sendControl(t, tracker, "node", MsgThreadAdded, ThreadAdded{Thread: th, ChildAddr: "child"})
	}
	// A redirect on the held thread, sent last, marks when the others
	// have been handled.
	sendControl(t, tracker, "node", MsgRedirect, Redirect{Thread: 0, ChildAddr: "child"})
	waitFor(t, 5*time.Second, "the redirect on thread 0", func() bool {
		node.mu.Lock()
		defer node.mu.Unlock()
		return node.table[0].down.child == "child"
	})
	node.keepalive(context.Background())
	node.mu.Lock()
	if len(node.table) != 1 {
		t.Errorf("thread records %+v, want thread 0's alone", node.table)
	}
	node.mu.Unlock()

	bad := scriptedWelcome
	bad.Threads = []int{-1}
	if err := NewNode(nil, NodeConfig{}).applyWelcome(bad); err == nil {
		t.Fatal("a welcome onto thread -1 was accepted")
	}
}
