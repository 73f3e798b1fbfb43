package protocol

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ncast/internal/sim"
	"ncast/internal/transport"
)

// The scenario suite drills the tracker's hostile-world behaviors
// end-to-end over the wire (a live Run loop, real frames): flash-crowd
// admission across many batches, churn with rejoin through lease expiry,
// the paper's kill-half-the-fleet robustness claim, and the
// dup-hello-refreshes-lease regression.

// scenarioTracker starts a live tracker on a fresh fabric and returns it
// with a client endpoint. The tracker is torn down (and its invariants
// checked) at cleanup.
func scenarioTracker(t *testing.T, cfg TrackerConfig) (*Tracker, transport.Endpoint) {
	t.Helper()
	net := transport.NewNetwork()
	trackerEP, err := net.Endpoint("tracker")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K == 0 {
		cfg.K = 8
	}
	if cfg.D == 0 {
		cfg.D = 2
	}
	if cfg.Session.GenSize == 0 {
		cfg.Session = SessionParams{FieldBits: 8, GenSize: 8, PacketSize: 32, ContentLen: 256}
	}
	tracker, err := NewTracker(trackerEP, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go tracker.Run(ctx) //nolint:errcheck // exits on cancel
	client, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := tracker.CheckInvariants(); err != nil {
			t.Errorf("tracker invariants at teardown: %v", err)
		}
		cancel()
		net.Close()
	})
	return tracker, client
}

// sendHello sends one hello with a deadline, so it waits for room in a
// flooded tracker's queue rather than being dropped after QueueWait.
func sendHello(t *testing.T, ep transport.Endpoint, addr string) {
	t.Helper()
	frame, err := EncodeControl(MsgHello, Hello{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ep.Send(ctx, "tracker", frame); err != nil {
		t.Fatalf("hello send: %v", err)
	}
}

// recvWelcome receives control frames until the next welcome (discarding
// redirects and other chatter), failing after the timeout.
func recvWelcome(t *testing.T, ep transport.Endpoint, timeout time.Duration) Welcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		_, msg, err := ep.Recv(ctx)
		if err != nil {
			t.Fatalf("waiting for welcome: %v", err)
		}
		typ, body, err := SplitControl(msg)
		if err != nil || typ != MsgWelcome {
			continue
		}
		var w Welcome
		if err := UnmarshalControl(typ, body, &w); err != nil {
			t.Fatalf("welcome payload: %v", err)
		}
		return w
	}
}

// TestFlashCrowdAdmittedInArrivalOrder floods a live tracker with a hello
// burst spanning many admission batches (600 > 2×admissionBatchMax) and
// requires every node admitted, in arrival order, zero dropped. Sequential
// id assignment makes arrival order observable: the j-th hello must be
// welcomed with id j+1, and per-peer outbox FIFO delivers the welcomes in
// admission order.
func TestFlashCrowdAdmittedInArrivalOrder(t *testing.T) {
	const n = 600
	tracker, client := scenarioTracker(t, TrackerConfig{
		// Deep enough that not a single welcome is dropped on the shared
		// client peer during the burst.
		OutboxDepth: 2 * n,
	})
	for i := 0; i < n; i++ {
		sendHello(t, client, fmt.Sprintf("node-%d", i))
	}
	for j := 0; j < n; j++ {
		w := recvWelcome(t, client, 30*time.Second)
		if w.ID != uint64(j+1) {
			t.Fatalf("welcome %d carries id %d, want %d (admission out of arrival order or dropped)",
				j, w.ID, j+1)
		}
	}
	waitFor(t, 10*time.Second, "census to reach the full crowd", func() bool {
		return tracker.NumNodes() == n
	})
}

// TestChurnRejoinGetsFreshRow drives the mobile-churn cycle over the
// wire: join, crash silently (no goodbye, no renewals), get swept by the
// lease expiry, rejoin from the same address, and receive a brand-new
// row. The expired row must be fully reclaimed (census back to zero
// in between, invariants clean at teardown via the harness).
func TestChurnRejoinGetsFreshRow(t *testing.T) {
	tracker, client := scenarioTracker(t, TrackerConfig{
		LeaseTimeout: 150 * time.Millisecond,
	})
	events := tracker.Events()

	sendHello(t, client, "churner")
	w1 := recvWelcome(t, client, 10*time.Second)

	// Crash: total silence. The sweep must reclaim the row — observable
	// as the "expire" event for our id.
	waitEvent(t, events, 10*time.Second, "lease expiry of the crashed node", func(ev TrackerEvent) bool {
		return ev.Kind == "expire" && uint64(ev.ID) == w1.ID
	})
	waitFor(t, 10*time.Second, "row reclaimed", func() bool { return tracker.NumNodes() == 0 })

	// Rejoin as if rebooted: same address, fresh hello, fresh row.
	sendHello(t, client, "churner")
	w2 := recvWelcome(t, client, 10*time.Second)
	if w2.ID == w1.ID {
		t.Fatalf("rejoin reused id %d; want a fresh row", w1.ID)
	}
	waitFor(t, 10*time.Second, "rejoined census", func() bool { return tracker.NumNodes() == 1 })
}

// TestKillHalfFleetRecovery drills the paper's robustness claim at the
// control plane: half the fleet crashes simultaneously and silently; the
// lease sweep must reclaim every orphaned row while the surviving half
// (kept alive by renewals) retains full connectivity after repair.
func TestKillHalfFleetRecovery(t *testing.T) {
	const n = 40
	tracker, client := scenarioTracker(t, TrackerConfig{
		LeaseTimeout: 300 * time.Millisecond,
		OutboxDepth:  4 * n,
	})

	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		sendHello(t, client, fmt.Sprintf("fleet-%d", i))
	}
	for j := 0; j < n; j++ {
		ids[j] = recvWelcome(t, client, 30*time.Second).ID
	}

	// The second half dies at one instant (pure silence). The first half
	// survives: renew its leases from the shared endpoint while the sweep
	// works (handleLease keys renewal by the id in the message).
	deadline := time.Now().Add(20 * time.Second)
	for tracker.NumNodes() > n/2 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stalled: %d rows remain, want %d", tracker.NumNodes(), n/2)
		}
		for j := 0; j < n/2; j++ {
			frame, err := EncodeControl(MsgLease, Lease{ID: ids[j]})
			if err != nil {
				t.Fatal(err)
			}
			if err := client.Send(context.Background(), "tracker", frame); err != nil {
				t.Fatalf("lease renewal: %v", err)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}

	if got := tracker.NumNodes(); got != n/2 {
		t.Fatalf("census after kill wave = %d, want %d", got, n/2)
	}
	if err := tracker.CheckInvariants(); err != nil {
		t.Fatalf("invariants after kill wave: %v", err)
	}
	// Post-repair the survivors must sit at full connectivity — the
	// repair procedure spliced every dead row out of every thread.
	stats := sim.MeasureConnectivity(tracker.Topology())
	if stats.Working != n/2 || stats.FullCount != stats.Working {
		t.Fatalf("survivor connectivity = %d/%d full (working=%d), want all full",
			stats.FullCount, stats.Working, n/2)
	}
}

// TestDupHelloRefreshesLease pins the flash-crowd/lease-sweep interaction
// fix: a joiner whose only traffic is hello retries (its welcome keeps
// missing it, or it is stuck in a long admission wave) must not be lease
// expired — each duplicate hello proves liveness and refreshes the lease.
// The node's Hello.Addr differs from its transport address, so the
// generic touchLease(from) path cannot save it; only the dup-hello branch
// of flushHellos can.
func TestDupHelloRefreshesLease(t *testing.T) {
	tracker, client := scenarioTracker(t, TrackerConfig{
		LeaseTimeout: 150 * time.Millisecond,
	})
	events := tracker.Events()

	sendHello(t, client, "sticky") // Addr "sticky" != transport addr "client"
	w := recvWelcome(t, client, 10*time.Second)

	// Keep re-helloing (and nothing else) well past several lease
	// timeouts; the row must survive throughout.
	stop := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(stop) {
		sendHello(t, client, "sticky")
		if tracker.NumNodes() != 1 {
			t.Fatalf("node expired mid-retry at %v before deadline", time.Until(stop))
		}
		time.Sleep(30 * time.Millisecond)
	}
	// No expiry may have been recorded for it at any point.
	select {
	case ev := <-events:
		if ev.Kind == "expire" && uint64(ev.ID) == w.ID {
			t.Fatalf("retrying joiner was lease-expired: %+v", ev)
		}
	default:
	}
	if tracker.NumNodes() != 1 {
		t.Fatalf("census = %d, want the retrying joiner alive", tracker.NumNodes())
	}
}
