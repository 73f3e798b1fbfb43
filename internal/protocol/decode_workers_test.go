package protocol

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// TestGenIndexSlots pins the node's dense generation table: a flat
// session's ids are their own slots, a layered session's id LayerGen(l, g)
// sits at the layer's base plus g, and every id outside the session is
// rejected.
func TestGenIndexSlots(t *testing.T) {
	t.Parallel()
	flat := newGenIndex([]uint32{0, 1, 2})
	for id := uint32(0); id < 3; id++ {
		if s, ok := flat.slot(id); !ok || s != int(id) {
			t.Fatalf("flat slot(%d) = %d, %v", id, s, ok)
		}
	}
	ids := []uint32{rlnc.LayerGen(0, 0), rlnc.LayerGen(0, 1),
		rlnc.LayerGen(1, 0), rlnc.LayerGen(1, 1), rlnc.LayerGen(1, 2), rlnc.LayerGen(2, 0)}
	layered := newGenIndex(ids)
	for want, id := range ids {
		if s, ok := layered.slot(id); !ok || s != want {
			t.Fatalf("layered slot(%#x) = %d, %v; want %d", id, s, ok, want)
		}
	}
	for _, c := range []struct {
		name string
		x    genIndex
		id   uint32
	}{
		{"flat past the end", flat, 3},
		{"flat, a layered id", flat, rlnc.LayerGen(1, 0)},
		{"past layer 0", layered, rlnc.LayerGen(0, 2)},
		{"past layer 1", layered, rlnc.LayerGen(1, 3)},
		{"past the last layer", layered, rlnc.LayerGen(3, 0)},
		{"before any welcome", genIndex{}, 0},
	} {
		if s, ok := c.x.slot(c.id); ok {
			t.Fatalf("%s: slot(%#x) = %d, want rejected", c.name, c.id, s)
		}
	}
}

// TestStatsReportRedundantExcludesDecodeDrops: a frame that a saturated
// decode worker drops was received but never absorbed, so it is neither
// innovative nor redundant, and a frame still waiting in the queue is not
// counted yet. The stats report must agree with the node's own
// ncast_node_redundant_total rather than count every frame that was not
// innovative as redundant.
func TestStatsReportRedundantExcludesDecodeDrops(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	parent := newEndpoint(t, net, "parent")
	m := obs.NewNodeMetrics(obs.NewRegistry(), "node")
	// The sink runs on the decode worker: holding the first event stalls
	// that worker, so the flood below overfills its queue.
	release := make(chan struct{})
	var once sync.Once
	sink := func(obs.GenEvent) { once.Do(func() { <-release }) }
	node, _, _ := joinScripted(t, net, NodeConfig{Seed: 1, DecodeWorkers: 2, Obs: m, GenSink: sink})

	const flood = 400
	for _, f := range codedFrames(flood) {
		if err := parent.Send(context.Background(), "node", f); err != nil {
			t.Fatal(err)
		}
	}
	// The stalled worker holds its first frame, counted, and its queue the
	// frames not counted yet; every other frame was dropped and counted.
	waitFor(t, 5*time.Second, "the node to take in the flood", func() bool {
		r := node.buildStatsReport()
		return r.Received+uint64(r.QueueDepth) == flood
	})
	close(release)
	// Let the worker drain what its queue held.
	settled := func() uint64 { return m.Innovative.Value() + m.Redundant.Value() }
	waitFor(t, 5*time.Second, "the decode worker to drain", func() bool {
		before := settled()
		time.Sleep(20 * time.Millisecond)
		return node.buildStatsReport().QueueDepth == 0 && settled() == before
	})

	r := node.buildStatsReport()
	if r.Redundant != m.Redundant.Value() || r.Innovative != m.Innovative.Value() {
		t.Fatalf("report innovative/redundant %d/%d, node counters %d/%d",
			r.Innovative, r.Redundant, m.Innovative.Value(), m.Redundant.Value())
	}
	if r.Received != flood || r.Received <= r.Innovative+r.Redundant {
		t.Fatalf("report received %d, innovative %d, redundant %d: want %d received and some dropped by the stalled worker",
			r.Received, r.Innovative, r.Redundant, flood)
	}
}

// dataLoss drops a seeded share of the data frames an endpoint receives
// and nothing else, so the overlay keeps the shape it joined with.
type dataLoss struct {
	transport.Endpoint
	rng  *rand.Rand // only the node's receive loop calls Recv
	loss float64
}

func (d *dataLoss) Recv(ctx context.Context) (string, []byte, error) {
	for {
		from, frame, err := d.Endpoint.Recv(ctx)
		if err != nil || !IsData(frame) || d.rng.Float64() >= d.loss {
			return from, frame, err
		}
	}
}

// TestLossyDecodeWorkersRecodeConcurrently broadcasts to twelve nodes
// that absorb through two decode workers each, every one with a child on
// each thread it holds, while 5% of the data frames each node receives
// are lost. Workers of one node absorb and recode distinct generations at
// the same time, each with its own rng, which the race detector checks.
// Every node must decode the content byte for byte, and the tracker's
// invariants must hold.
func TestLossyDecodeWorkersRecodeConcurrently(t *testing.T) {
	t.Parallel()
	const k, workers = 4, 12
	content := randContent(4000) // 16 generations of 8 × 32 B
	s, ctx := newBareSession(t, content, k, 2)
	join := func(i int, addr string) {
		// Degree k puts each node on every thread, so the next node to join
		// is its child on all of them.
		cfg := NodeConfig{Degree: k, DecodeWorkers: 2, ComplaintTimeout: 500 * time.Millisecond, Seed: int64(300 + i)}
		joinNode(t, s, ctx, addr, cfg, func(ep transport.Endpoint) transport.Endpoint {
			return &dataLoss{Endpoint: ep, rng: rand.New(rand.NewSource(int64(i))), loss: 0.05}
		})
	}
	for i := 0; i < workers; i++ {
		join(i, fmt.Sprintf("worker%d", i))
	}
	// A tail node gives the last worker its children.
	join(workers, "tail")

	for i, n := range s.nodes[:workers] {
		waitFor(t, 10*time.Second, fmt.Sprintf("worker%d to have a child on every thread", i), func() bool {
			n.mu.Lock()
			defer n.mu.Unlock()
			for _, r := range n.table {
				if r.held && r.down.child == "" {
					return false
				}
			}
			return n.degreeLocked() > 0
		})
	}
	for i, n := range s.nodes {
		waitComplete(t, n, 60*time.Second)
		got, err := n.Content()
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("node %d decoded content that differs from the source", i)
		}
	}
	if err := s.tracker.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeWorkerTelemetryConsistent pins the node's lock discipline
// under the race detector: a node that absorbs traced frames of four
// generations on two decode workers, recodes them for a child, answers
// its parent's probes and measures its own probes' echoes, while its
// clock sends a stats report every 2 ms. Every report must be one
// consistent snapshot: Received − Innovative − Redundant (the frames
// dropped before a verdict) never shrinks from one report to the next,
// the parent's link scorecard holds the same verdicts as the node's
// counters, and the hop cells drained so far count exactly the frames
// judged so far. At the end every delivered frame is counted, and every
// generation decoded once.
func TestDecodeWorkerTelemetryConsistent(t *testing.T) {
	t.Parallel()
	net := transport.NewNetwork()
	defer net.Close()
	parent, child := newEndpoint(t, net, "parent"), newEndpoint(t, net, "child")
	w := scriptedWelcome
	w.Session.ContentLen = 4 * w.Session.GenSize * w.Session.PacketSize
	w.StatsMillis = 2
	var decodedEvents atomic.Int64
	sink := func(e obs.GenEvent) {
		if e.Phase == obs.PhaseDecoded {
			decodedEvents.Add(1)
		}
	}
	m := obs.NewNodeMetrics(obs.NewRegistry(), "node")
	cfg := NodeConfig{Seed: 1, DecodeWorkers: 2, ComplaintTimeout: 40 * time.Millisecond, Obs: m, GenSink: sink}
	_, tracker, _ := joinScriptedWith(t, net, cfg, w)
	sendControl(t, tracker, "node", MsgRedirect, Redirect{Thread: 0, ChildAddr: "child"})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	// The checks below need every report, in order, so the buffer holds
	// all of a run's reports (one every 2 ms).
	reports := make(chan StatsReport, 1<<14)
	wg.Add(3)
	go func() { // the tracker: collect the stats reports in order
		defer wg.Done()
		for {
			_, frame, err := tracker.Recv(ctx)
			if err != nil {
				return
			}
			var r StatsReport
			if typ, body, err := SplitControl(frame); err == nil && typ == MsgStatsReport &&
				UnmarshalControl(typ, body, &r) == nil {
				select {
				case reports <- r:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	go func() { // the parent: echo the node's probes
		defer wg.Done()
		for {
			_, frame, err := parent.Recv(ctx)
			if err != nil {
				return
			}
			if ki, err := DecodeKeepaliveEcho(frame); err == nil && ki.IsProbe() {
				_ = parent.Send(ctx, "node", EncodeKeepaliveEcho(ki.Thread, 0, ki.TxNanos, 0))
			}
		}
	}()
	go func() { // the child: take what the node forwards
		defer wg.Done()
		for {
			if _, _, err := child.Recv(ctx); err != nil {
				return
			}
		}
	}()

	// The parent sends traced frames of the four generations, round robin,
	// with a probe of its own and a short pause every 32 frames, so the
	// reports land while frames are judged. Each send waits for room in
	// the node's queue, so every frame is delivered.
	const frames = 2000
	rng := rand.New(rand.NewSource(1))
	g := w.Session
	for i := 0; i < frames; i++ {
		p := &rlnc.Packet{Gen: uint32(i % 4), Coeff: make([]byte, g.GenSize), Payload: make([]byte, g.PacketSize)}
		for j := range p.Coeff {
			p.Coeff[j] = byte(1 + rng.Intn(255))
		}
		rng.Read(p.Payload)
		frame := EncodeDataSeq(gf.F256, 0, int32(i), time.Now().UnixNano(), TraceContext{ID: 7, Hop: 1}, p)
		if err := parent.Send(ctx, "node", frame); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i%32 == 0 {
			if err := parent.Send(ctx, "node", EncodeKeepaliveEcho(0, time.Now().UnixNano(), 0, 0)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}

	var dropped, cellsReceived, cellsInnovative uint64
	seen := 0
	for {
		var r StatsReport
		select {
		case r = <-reports:
		case <-ctx.Done():
			t.Fatalf("no report counted all %d frames after %d reports", frames, seen)
		}
		seen++
		for _, h := range r.TraceHops {
			cellsReceived += uint64(h.Received)
			cellsInnovative += uint64(h.Innovative)
		}
		judged := r.Innovative + r.Redundant
		if r.Received < judged || r.Received-judged < dropped {
			t.Fatalf("report %d: received %d, innovative %d, redundant %d: drops before a verdict fell below %d",
				seen, r.Received, r.Innovative, r.Redundant, dropped)
		}
		dropped = r.Received - judged
		if cellsReceived != judged || cellsInnovative != r.Innovative {
			t.Fatalf("report %d: hop cells so far hold %d frames, %d innovative; counters %d, %d",
				seen, cellsReceived, cellsInnovative, judged, r.Innovative)
		}
		var link obs.LinkReport
		for _, l := range r.Links {
			if l.Peer == "parent" {
				link = l
			}
		}
		if link.Innovative != r.Innovative || link.Redundant != r.Redundant {
			t.Fatalf("report %d: parent link %d/%d, node %d/%d",
				seen, link.Innovative, link.Redundant, r.Innovative, r.Redundant)
		}
		if r.Received < frames || r.QueueDepth > 0 || link.RTTSamples == 0 {
			continue
		}
		if r.Received != frames || m.Received.Value() != frames {
			t.Fatalf("received %d, ncast_node_received_total %d, want %d delivered", r.Received, m.Received.Value(), frames)
		}
		if !r.Complete || decodedEvents.Load() != 4 {
			t.Fatalf("complete %v with %d decoded events, want 4", r.Complete, decodedEvents.Load())
		}
		t.Logf("%d reports; %d frames dropped before a verdict", seen, dropped)
		return
	}
}
