package protocol

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

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
// decode worker drops, or that still waits in its queue, was received but
// never absorbed, so it is neither innovative nor redundant. The stats
// report must agree with the node's own ncast_node_redundant_total rather
// than count every frame that was not innovative as redundant.
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
	waitFor(t, 5*time.Second, "the node to receive the flood", func() bool {
		received, _ := node.Stats()
		return received == flood
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
			for _, th := range n.threads {
				if n.childOf[th] == "" {
					return false
				}
			}
			return len(n.threads) > 0
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
