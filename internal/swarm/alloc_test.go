package swarm

import (
	"context"
	"testing"

	"ncast/internal/protocol"
	"ncast/internal/transport"
)

// TestControlDeliverAllocs is the shard's control-send allocation guard:
// beyond the frame EncodeControl builds, a control message sent to a
// fabric receiver that releases its frames costs no context, timer or
// buffer, because every send reuses the event loop's send window. The
// tracker's outbox has its own guard of the same name.
func TestControlDeliverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	net := transport.NewNetwork()
	defer net.Close()
	tracker, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{N: 1, Shards: 1, Network: net, TrackerAddr: "tracker"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The event loop is not started: the test sends as the loop would.
	sh := s.shards[0]
	sh.send = transport.NewSendWindow(ctx, controlSendBound)
	defer sh.send.Stop()
	v := sh.node(0)
	var lease interface{} = protocol.Lease{ID: 7}
	rx := transport.Batched(tracker)
	var got [transport.RecvBatchLen]transport.Frame
	send := func() {
		sh.sendControl(ctx, v, protocol.MsgLease, lease)
		k, err := rx.RecvBatch(ctx, got[:])
		if err != nil || k != 1 {
			t.Fatalf("delivered %d frames (%v), want 1", k, err)
		}
		got[0].Release()
	}
	const warm, runs = 64, 1000
	for i := 0; i < warm; i++ {
		send()
	}
	perMsg := testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			send()
		}
	}) / runs
	encode := testing.AllocsPerRun(runs, func() { _, _ = protocol.EncodeControl(protocol.MsgLease, lease) })
	// Measured: the encoded frame alone. A deadline context per message
	// would add four objects (the context, its timer and their
	// cancellation).
	if extra := perMsg - encode; extra > 0.01 {
		t.Fatalf("a control send allocates %.3f objects beyond its %.0f-object encoding, want <= 0.01", extra, encode)
	}
	if n := s.c.sendErrors.Load(); n != 0 {
		t.Fatalf("%d send errors", n)
	}
}
