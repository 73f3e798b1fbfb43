package ncast

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"ncast/internal/obs"
)

// TestStreamPacedDecodesInOrder broadcasts 64 generations from a paced
// source over the in-memory datagram plane at 5% loss and 1 ms latency,
// k=16 and d=4, to seven receivers joined one after another. Every
// receiver must end with the exact bytes and the overlay must keep its
// invariants, and the stream must arrive in order: at every receiver the
// first quarter of the generations decodes before the median of the last
// quarter. A source that sweeps every open generation fails the last
// check, since every generation then completes near the end.
func TestStreamPacedDecodesInOrder(t *testing.T) {
	t.Parallel()
	const receivers, gens = 7, 64
	cfg := DefaultConfig()
	cfg.K, cfg.D = 16, 4
	cfg.GenSize, cfg.PacketSize = 16, 64
	cfg.SourceInterval = time.Millisecond
	WithDatagramData()(&cfg)
	content := testContent(gens * cfg.GenSize * cfg.PacketSize)

	var mu sync.Mutex
	decoded := map[string]map[uint32]time.Time{} // node -> generation -> decode time
	sink := func(ev GenEvent) {
		if ev.Phase != obs.PhaseDecoded {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if decoded[ev.Node] == nil {
			decoded[ev.Node] = map[uint32]time.Time{}
		}
		decoded[ev.Node][ev.Gen] = ev.At
	}
	sess, err := NewSession(content, cfg, WithLoss(0.05), WithLatency(time.Millisecond),
		WithNetworkSeed(1), WithGenEvents(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var clients []*Client
	for i := 0; i < receivers; i++ {
		c, err := sess.AddClient(ctx, WithClientSeed(int64(i)+1))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for i, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("receiver %d: %v", i, err)
		}
		got, err := c.Content()
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("receiver %d: content mismatch (err=%v)", i, err)
		}
	}
	if err := sess.tracker.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(decoded) != receivers {
		t.Fatalf("decode events from %d nodes, want %d", len(decoded), receivers)
	}
	for node, at := range decoded {
		if len(at) != gens {
			t.Fatalf("node %s: %d generations decoded, want %d", node, len(at), gens)
		}
		var last []time.Time
		for g := gens - gens/4; g < gens; g++ {
			last = append(last, at[uint32(g)])
		}
		sort.Slice(last, func(i, j int) bool { return last[i].Before(last[j]) })
		median := last[len(last)/2]
		for g := 0; g < gens/4; g++ {
			if !at[uint32(g)].Before(median) {
				t.Fatalf("node %s: generation %d decoded %v after the last quarter's median",
					node, g, at[uint32(g)].Sub(median))
			}
		}
	}
}
