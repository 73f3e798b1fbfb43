package protocol

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ncast/internal/gf"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// codedFrames returns n coded data frames for thread 0 of the single
// generation scriptedWelcome announces, with sequence numbers 0..n-1.
func codedFrames(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	g := scriptedWelcome.Session
	frames := make([][]byte, n)
	for i := range frames {
		p := &rlnc.Packet{Gen: 0, Coeff: make([]byte, g.GenSize), Payload: make([]byte, g.PacketSize)}
		for j := range p.Coeff {
			p.Coeff[j] = byte(1 + rng.Intn(255))
		}
		rng.Read(p.Payload)
		frames[i] = EncodeDataSeq(gf.F256, 0, int32(i%SeqMod), 1, TraceContext{}, p)
	}
	return frames
}

// forwardingNode joins a node against a scripted tracker and gives it the
// child "child" on its one thread; the parent "parent" feeds that thread.
func forwardingNode(t *testing.T, net *transport.Network) (node *Node, tracker, parent, child transport.Endpoint) {
	t.Helper()
	parent, child = newEndpoint(t, net, "parent"), newEndpoint(t, net, "child")
	node, tracker, _ = joinScripted(t, net, NodeConfig{Seed: 1})
	sendControl(t, tracker, "node", MsgRedirect, Redirect{Thread: 0, ChildAddr: "child"})
	return node, tracker, parent, child
}

// TestStalledTrackerDoesNotStallForwarding: a node that decodes the
// content tells the tracker, from its receive loop. With the tracker's
// queue full that send must end within transport.QueueWait, and the node
// must go on forwarding a frame to its child for every frame its parent
// sends. A send that waited for the tracker would freeze the receive
// loop, and the child would hear nothing.
func TestStalledTrackerDoesNotStallForwarding(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	node, _, parent, child := forwardingNode(t, net)
	fillQueue(t, newEndpoint(t, net, "filler"), "tracker")

	// The parent feeds the thread every 5 ms, through completion and on.
	ctx, cancel := context.WithCancel(context.Background())
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for _, f := range codedFrames(400) {
			_ = parent.Send(ctx, "node", f)
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	defer func() { cancel(); <-fed }()

	waitFor(t, 5*time.Second, "the node to decode", func() bool { return node.Progress() == 1 })
	const window = 400 * time.Millisecond
	rctx, rcancel := context.WithTimeout(context.Background(), window)
	defer rcancel()
	prev, frames := time.Now(), 0
	var worst time.Duration
	for {
		_, _, err := child.Recv(rctx)
		now := time.Now()
		worst = max(worst, now.Sub(prev))
		prev = now
		if err != nil {
			break
		}
		frames++
	}
	if worst >= 4*transport.QueueWait {
		t.Fatalf("child went %v without a forwarded frame after the node decoded (%d frames in %v); want under %v",
			worst, frames, window, 4*transport.QueueWait)
	}
}

// TestForwardPathAllocs pins the allocations of one forwarded frame, from
// the parent's send through the node's receipt, elimination and recoding
// to the frame its child receives. Each hop's transport copies the frame
// into a buffer its receiver releases, the node and the child alike; the
// node itself allocates no context, timer or frame buffer.
func TestForwardPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	net := transport.NewNetwork()
	defer net.Close()
	_, _, parent, child := forwardingNode(t, net)

	const warm, runs = 64, 400
	// AllocsPerRun calls its function once to warm up, then once measured.
	frames := codedFrames(warm + 2*runs)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rx := transport.Batched(child)
	var got [transport.RecvBatchLen]transport.Frame
	next, pending := 0, 0
	forward := func() {
		if err := parent.Send(ctx, "node", frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
		pending++
		for pending > 0 {
			k, err := rx.RecvBatch(ctx, got[:])
			if err != nil {
				t.Fatalf("no forwarded frame: %v", err)
			}
			for i := range got[:k] {
				got[i].Release()
			}
			pending -= k
		}
	}
	// Decode the generation and warm the pools outside the measured runs.
	for i := 0; i < warm; i++ {
		forward()
	}
	// Measured: 0 per frame; the bound leaves room for a stray allocation
	// of the runtime or the node's clock, not for one per frame. A
	// per-frame deadline context would add about five (the context, its
	// timer and their cancellation).
	perFrame := testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			forward()
		}
	}) / runs
	if perFrame > 0.01 {
		t.Fatalf("forwarding allocates %.3f objects per frame, want <= 0.01", perFrame)
	}
}

// TestDecoderChunkAllocs pins what a node allocates for the decoders of
// the generations it starts: the recoders of recoderChunk slots at a
// time, four objects a chunk (the recoders and the three slabs their
// arenas, pivot maps and step logs are carved from), where one recoder
// per generation cost four objects a generation.
func TestDecoderChunkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	const h, size, gens = 8, 64, 10 * recoderChunk
	w := Welcome{ID: 1, K: 1, Degree: 1, Threads: []int{0},
		Session: SessionParams{FieldBits: 8, GenSize: h, PacketSize: size, ContentLen: gens * h * size}}
	r := rand.New(rand.NewSource(1))
	frame := func(gen uint32) []byte {
		p := &rlnc.Packet{Gen: gen, Coeff: make([]byte, h), Payload: make([]byte, size)}
		r.Read(p.Coeff)
		r.Read(p.Payload)
		return EncodeDataSeq(gf.F256, 0, 0, 1, TraceContext{}, p)
	}
	frames := make([][]byte, gens)
	for g := range frames {
		frames[g] = frame(uint32(g))
	}
	foreign := frame(gens) // outside the session: scores the link, starts nothing

	net := transport.NewNetwork()
	defer net.Close()
	ctx := context.Background()
	var nodes [2]*Node
	for i := range nodes {
		nodes[i] = NewNode(newEndpoint(t, net, fmt.Sprintf("node%d", i)), NodeConfig{Seed: 1})
		if err := nodes[i].applyWelcome(w); err != nil {
			t.Fatal(err)
		}
		nodes[i].handleData(ctx, "parent", foreign, nil, time.Now())
	}
	// AllocsPerRun calls its function once to warm up, on nodes[0], then
	// once measured, on nodes[1].
	run := 0
	allocs := testing.AllocsPerRun(1, func() {
		n := nodes[run]
		run++
		for _, f := range frames {
			n.handleData(ctx, "parent", f, nil, time.Now())
		}
	})
	for i, n := range nodes {
		if got := n.gens[gens-1].rc; got == nil || got.Rank() != 1 {
			t.Fatalf("node %d did not start every generation", i)
		}
	}
	chunks := (gens + recoderChunk - 1) / recoderChunk
	if allocs > float64(4*chunks) {
		t.Fatalf("starting %d generations allocates %v objects, want at most %d (four per chunk of %d)",
			gens, allocs, 4*chunks, recoderChunk)
	}
}
