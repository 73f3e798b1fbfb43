package protocol

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ncast/internal/core"
	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// The admission suite pins the batched-admission edge cases: a flash
// crowd larger than one batch, and the orderings where a duplicate hello
// is still queued when a goodbye or a lease expiry removes the row it
// duplicates.

// newAdmissionTracker builds a tracker (and its source) on a fresh
// fabric without starting Run, so tests can drive ingest/flushHellos
// directly and observe intermediate states that the run loop would race
// past.
func newAdmissionTracker(t *testing.T, k, d int) (*Tracker, *transport.Network) {
	t.Helper()
	net := transport.NewNetwork()
	trackerEP, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	params := rlnc.Params{Field: gf.F256, GenSize: 8, PacketSize: 32}
	source, err := NewSource(trackerEP, k, params, randContent(256), 42)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := NewTracker(trackerEP, source, TrackerConfig{
		K: k, D: d, Session: source.Session(), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := tracker.CheckInvariants(); err != nil {
			t.Errorf("tracker invariants at teardown: %v", err)
		}
		net.Close()
	})
	return tracker, net
}

// trackerID returns the overlay id the tracker holds for addr, or fails.
func trackerID(t *testing.T, tr *Tracker, addr string) core.NodeID {
	t.Helper()
	tr.mu.Lock()
	id, ok := tr.idOf[addr]
	tr.mu.Unlock()
	if !ok {
		t.Fatalf("no identity recorded for %q", addr)
	}
	return id
}

// nextEvent pops one tracker event or fails; the direct-call tests emit
// few enough events that the buffered channel never drops.
func nextEvent(t *testing.T, tr *Tracker, wantKind string) TrackerEvent {
	t.Helper()
	select {
	case ev := <-tr.Events():
		if ev.Kind != wantKind {
			t.Fatalf("event = %+v, want kind %q", ev, wantKind)
		}
		return ev
	default:
		t.Fatalf("no buffered event, want kind %q", wantKind)
		return TrackerEvent{}
	}
}

// TestHelloBurstSpansBatches floods a running tracker with more
// simultaneous hellos than one admission batch can hold. Every joiner
// must be admitted exactly once with a distinct identity, and the batch
// histogram must show the flood split into multiple transactions whose
// sizes sum to the population — no hello double-counted or dropped at a
// batch boundary.
func TestHelloBurstSpansBatches(t *testing.T) {
	t.Parallel()
	const burst = admissionBatchMax + 44 // forces at least two batches
	ctx, cancel := context.WithCancel(context.Background())
	net := transport.NewNetwork()
	trackerEP, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	params := rlnc.Params{Field: gf.F256, GenSize: 8, PacketSize: 32}
	source, err := NewSource(trackerEP, 32, params, randContent(256), 42)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tracker, err := NewTracker(trackerEP, source, TrackerConfig{
		K: 32, D: 2, Session: source.Session(), Seed: 7,
		Obs: obs.NewTrackerMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = tracker.Run(ctx) }()
	go func() { defer wg.Done(); _ = source.Run(ctx) }()
	t.Cleanup(func() {
		if err := tracker.CheckInvariants(); err != nil {
			t.Errorf("tracker invariants at teardown: %v", err)
		}
		cancel()
		net.Close()
		wg.Wait()
	})

	// Every joiner sends from its own endpoint and waits for its welcome.
	// The hello carries a deadline, so the in-memory fabric holds it
	// until the tracker's queue has room instead of dropping it after
	// transport.QueueWait: nothing is lost however the flood interleaves
	// with batch flushes.
	ids := make(chan uint64, burst)
	var joiners sync.WaitGroup
	for i := 0; i < burst; i++ {
		addr := fmt.Sprintf("b%d", i)
		ep, err := net.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		hello, err := EncodeControl(MsgHello, Hello{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		joiners.Add(1)
		go func() {
			defer joiners.Done()
			rctx, rcancel := context.WithTimeout(ctx, 30*time.Second)
			defer rcancel()
			if err := ep.Send(rctx, "tracker", hello); err != nil {
				t.Errorf("hello from %s: %v", addr, err)
				return
			}
			for {
				_, frame, err := ep.Recv(rctx)
				if err != nil {
					t.Errorf("welcome for %s never arrived: %v", addr, err)
					return
				}
				typ, body, derr := SplitControl(frame)
				if derr != nil || typ != MsgWelcome {
					continue
				}
				var w Welcome
				if err := UnmarshalControl(typ, body, &w); err != nil {
					t.Errorf("welcome payload for %s: %v", addr, err)
					return
				}
				ids <- w.ID
				return
			}
		}()
	}
	joiners.Wait()
	close(ids)

	seen := make(map[uint64]bool, burst)
	for id := range ids {
		if seen[id] {
			t.Fatalf("identity %d handed to two joiners", id)
		}
		seen[id] = true
	}
	if len(seen) != burst {
		t.Fatalf("admitted %d distinct identities, want %d", len(seen), burst)
	}
	if n := tracker.NumNodes(); n != burst {
		t.Fatalf("population = %d, want %d", n, burst)
	}

	// The histogram is the batching proof: sizes sum to exactly the flood
	// (each hello admitted once), and the cap forces at least two
	// transactions.
	for _, p := range reg.Snapshot() {
		if p.Name != "ncast_tracker_admit_batch_size" {
			continue
		}
		if p.Sum != float64(burst) {
			t.Errorf("batch sizes sum to %v, want %d", p.Sum, burst)
		}
		if p.Count < 2 {
			t.Errorf("flood admitted in %d batch(es); cap %d demands at least 2", p.Count, admissionBatchMax)
		}
	}
}

// TestGoodbyeRacesQueuedDuplicateHello drives the two orderings of a
// duplicate hello racing a goodbye for the same row. Queued-dup-first:
// the flush re-sends the existing welcome (no second row) and the
// goodbye then removes the row. Goodbye-first: the retried hello finds
// no row and is admitted fresh under a new identity.
func TestGoodbyeRacesQueuedDuplicateHello(t *testing.T) {
	t.Parallel()
	tr, net := newAdmissionTracker(t, 8, 2)
	if _, err := net.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hello, err := EncodeControl(MsgHello, Hello{Addr: "a"})
	if err != nil {
		t.Fatal(err)
	}

	var pending []pendingHello
	pending = tr.ingest(ctx, time.Now(), "a", hello, pending)
	if len(pending) != 1 {
		t.Fatalf("hello not queued: %d pending", len(pending))
	}
	pending = tr.flushHellos(ctx, pending)
	id1 := trackerID(t, tr, "a")
	nextEvent(t, tr, "join")

	// Ordering 1: the duplicate is queued when the goodbye arrives. The
	// goodbye is a non-hello, so ingest flushes the queue first — the dup
	// re-welcomes against the still-live row — then dispatches the
	// goodbye, which removes it. Arrival order is preserved end to end.
	pending = tr.ingest(ctx, time.Now(), "a", hello, pending)
	goodbye, err := EncodeControl(MsgGoodbye, Goodbye{ID: uint64(id1)})
	if err != nil {
		t.Fatal(err)
	}
	pending = tr.ingest(ctx, time.Now(), "a", goodbye, pending)
	if len(pending) != 0 {
		t.Fatalf("goodbye left %d hellos queued", len(pending))
	}
	if n := tr.NumNodes(); n != 0 {
		t.Fatalf("population = %d after dup-hello then goodbye, want 0", n)
	}
	nextEvent(t, tr, "leave") // the dup flush must NOT have emitted a second join
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Ordering 2: the row is already gone when the retried hello flushes —
	// a fresh admission under a new identity, never a resurrection of id1.
	pending = tr.ingest(ctx, time.Now(), "a", hello, pending)
	pending = tr.flushHellos(ctx, pending)
	_ = pending
	id2 := trackerID(t, tr, "a")
	if id2 == id1 {
		t.Fatalf("re-join after goodbye reused identity %d", id1)
	}
	if n := tr.NumNodes(); n != 1 {
		t.Fatalf("population = %d after re-join, want 1", n)
	}
	ev := nextEvent(t, tr, "join")
	if ev.ID != id2 {
		t.Fatalf("join event for %d, want %d", ev.ID, id2)
	}
}

// TestExpireSweepsNodeWithQueuedDuplicateHello: a lease expiry fires
// while the expired node's own duplicate hello sits in the admission
// queue. The expiry removes the row; the queued hello must then be
// admitted as a brand-new node — a fresh identity, not a dangling
// welcome for a row that no longer exists. Tracker.Run sweeps only
// between dispatch rounds, when the queue is empty, so this interleaving
// is reachable only through direct calls; the test keeps expire and
// flushHellos correct on their own.
func TestExpireSweepsNodeWithQueuedDuplicateHello(t *testing.T) {
	t.Parallel()
	tr, net := newAdmissionTracker(t, 8, 2)
	if _, err := net.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hello, err := EncodeControl(MsgHello, Hello{Addr: "a"})
	if err != nil {
		t.Fatal(err)
	}

	var pending []pendingHello
	pending = tr.ingest(ctx, time.Now(), "a", hello, pending)
	pending = tr.flushHellos(ctx, pending)
	id1 := trackerID(t, tr, "a")
	nextEvent(t, tr, "join")

	// The node retries its hello (welcome lost, say), and before the next
	// flush its lease expires: the sweep splices the row out under the
	// queued duplicate.
	pending = tr.ingest(ctx, time.Now(), "a", hello, pending)
	tr.expire(ctx, id1)
	if ev := nextEvent(t, tr, "expire"); ev.ID != id1 {
		t.Fatalf("expire event for %d, want %d", ev.ID, id1)
	}
	if n := tr.NumNodes(); n != 0 {
		t.Fatalf("population = %d after expiry, want 0", n)
	}

	// The queued hello now finds no row: fresh join, new identity.
	pending = tr.flushHellos(ctx, pending)
	_ = pending
	id2 := trackerID(t, tr, "a")
	if id2 == id1 {
		t.Fatalf("post-expiry flush resurrected identity %d", id1)
	}
	if n := tr.NumNodes(); n != 1 {
		t.Fatalf("population = %d after post-expiry flush, want 1", n)
	}
	if ev := nextEvent(t, tr, "join"); ev.ID != id2 {
		t.Fatalf("join event for %d, want %d", ev.ID, id2)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
