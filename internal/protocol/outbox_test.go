package protocol

import (
	"context"
	"testing"
	"time"

	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// newOutboxTracker builds a tracker on a fresh fabric, with the given send
// deadline and its metrics, without starting Run, plus a peer endpoint for
// its control messages.
func newOutboxTracker(t *testing.T, sendDeadline time.Duration) (*Tracker, *obs.TrackerMetrics, transport.Endpoint) {
	t.Helper()
	net := transport.NewNetwork()
	t.Cleanup(func() { net.Close() })
	ep, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.Endpoint("peer")
	if err != nil {
		t.Fatal(err)
	}
	params := rlnc.Params{Field: gf.F256, GenSize: 8, PacketSize: 32}
	source, err := NewSource(ep, 4, params, randContent(256), 42)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewTrackerMetrics(obs.NewRegistry())
	tr, err := NewTracker(ep, nil, TrackerConfig{
		K: 4, D: 2, Session: source.Session(), SendDeadline: sendDeadline, Obs: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, m, peer
}

// TestOutboxSendDeadlineLadder pins the worst-case wait of one control
// message to a peer whose queue is full and never read. Every attempt
// waits on the worker's send window, between SendDeadline/2 and
// SendDeadline, and a timed-out attempt is retried after the doubling
// backoff, so the message gives up after two retries and one drop, no
// sooner than 3×SendDeadline/2 and no later than 3×SendDeadline, plus
// 75 ms of backoff. A first attempt sent without a deadline would be
// dropped by the fabric after QueueWait and never retried. Once the peer
// drains, the next message goes through on its first attempt.
func TestOutboxSendDeadlineLadder(t *testing.T) {
	t.Parallel()
	const deadline = 200 * time.Millisecond
	tr, m, peer := newOutboxTracker(t, deadline)
	for i := 0; i < 256; i++ { // the fabric's default receive queue
		if err := tr.ep.Send(context.Background(), "peer", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	start := time.Now()
	tr.sendControl(ctx, "peer", MsgError, ErrorMsg{Reason: "clogged"})
	for m.OutboxDrops.Value() == 0 {
		if time.Since(start) > 10*time.Second {
			t.Fatal("message to a full queue never gave up")
		}
		time.Sleep(time.Millisecond)
	}
	took := time.Since(start)
	backoff := outboxBackoff + 2*outboxBackoff
	lo := outboxAttempts*deadline/2 + backoff
	hi := outboxAttempts*deadline + backoff + time.Second // slack for a loaded host
	if took < lo || took > hi {
		t.Fatalf("message gave up after %v, want within [%v, %v]", took, lo, hi)
	}
	if r, d := m.OutboxRetries.Value(), m.OutboxDrops.Value(); r != 2 || d != 1 {
		t.Fatalf("retries = %d, drops = %d; want 2 and 1", r, d)
	}

	// The peer drains; the next message lands on its first attempt.
	rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer rcancel()
	for i := 0; i < 256; i++ {
		if _, _, err := peer.Recv(rctx); err != nil {
			t.Fatal(err)
		}
	}
	tr.sendControl(ctx, "peer", MsgError, ErrorMsg{Reason: "drained"})
	_, frame, err := peer.Recv(rctx)
	if err != nil {
		t.Fatalf("no message after the drain: %v", err)
	}
	var e ErrorMsg
	if typ, body, err := SplitControl(frame); err != nil || UnmarshalControl(typ, body, &e) != nil || e.Reason != "drained" {
		t.Fatalf("after the drain the peer read %q, want the drained error", frame)
	}
	if r, d := m.OutboxRetries.Value(), m.OutboxDrops.Value(); r != 2 || d != 1 {
		t.Fatalf("after the drain retries = %d, drops = %d; want still 2 and 1", r, d)
	}
}

// TestControlDeliverAllocs is the tracker's control-send allocation guard:
// a delivered control message costs no context, timer or buffer, because
// every attempt reuses the worker's send window and the fabric copies into
// the receiver's recycled buffers. The swarm's shard send has its own
// guard of the same name.
func TestControlDeliverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	tr, _, peer := newOutboxTracker(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	frame, err := EncodeControl(MsgLease, Lease{ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	w := transport.NewSendWindow(ctx, tr.sendDeadline())
	defer w.Stop()
	rx := transport.Batched(peer)
	var got [transport.RecvBatchLen]transport.Frame
	deliver := func() {
		tr.deliver(ctx, &w, "peer", frame)
		k, err := rx.RecvBatch(ctx, got[:])
		if err != nil || k != 1 {
			t.Fatalf("delivered %d frames (%v), want 1", k, err)
		}
		got[0].Release()
	}
	const warm, runs = 64, 1000
	for i := 0; i < warm; i++ {
		deliver()
	}
	// Measured: 0 per message. A deadline context per message would add
	// four objects (the context, its timer and their cancellation).
	perMsg := testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			deliver()
		}
	}) / runs
	if perMsg > 0.01 {
		t.Fatalf("delivering a control message allocates %.3f objects, want <= 0.01", perMsg)
	}
}
