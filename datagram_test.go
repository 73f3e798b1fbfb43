package ncast

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ncast/internal/obs"
)

// TestDatagramBroadcastWithLoss is the acceptance run for the split-plane
// transport through the public API: ListenAndServe and Dial with
// DatagramData put control on TCP and coded data on UDP sharing the port,
// while DataLoss drops 5% of outbound datagrams. The broadcast must
// complete anyway, and the per-kind metrics must show data actually
// flowed over UDP — and was actually lost there — rather than silently
// falling back to TCP.
func TestDatagramBroadcastWithLoss(t *testing.T) {
	t.Parallel()
	content := testContent(2000)
	cfg := testConfig()
	cfg.SourceInterval = time.Millisecond
	cfg.Seed = 42
	WithDatagramData()(&cfg)
	cfg.DataLoss = 0.05
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	srv, err := ListenAndServe("127.0.0.1:0", content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var clients []*RemoteClient
	for i := 0; i < 3; i++ {
		c, err := Dial(ctx, srv.Addr(), "127.0.0.1:0", cfg, WithClientSeed(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	for i, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("client %d: %v (progress %.2f)", i, err, c.Progress())
		}
		got, err := c.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch over datagram data plane")
		}
	}

	// The planes must be distinguishable in the scrape, and each must have
	// carried its own traffic: coded data over UDP, control over TCP.
	snap := srv.Snapshot()
	udp := obs.Label{Key: "transport", Value: "udp"}
	tcp := obs.Label{Key: "transport", Value: "tcp"}
	udpSent := snap.Metric("ncast_transport_frames_sent_total", udp)
	if udpSent == nil || udpSent.Value == 0 {
		t.Fatalf("no data frames sent over UDP: %+v", udpSent)
	}
	tcpSent := snap.Metric("ncast_transport_frames_sent_total", tcp)
	if tcpSent == nil || tcpSent.Value == 0 {
		t.Fatalf("no control frames sent over TCP: %+v", tcpSent)
	}
	// Injected loss lands on the UDP bundle (the chaos wrapper sits under
	// the instrumentation), proving data frames were genuinely dropped and
	// never retransmitted over TCP.
	udpDrops := snap.Metric("ncast_transport_frames_dropped_total", udp)
	if udpDrops == nil || udpDrops.Value == 0 {
		t.Fatalf("no injected datagram drops recorded: %+v", udpDrops)
	}
	// The hot path is vectorized: sends leave in coalesced batches.
	batch := snap.Metric("ncast_transport_send_batch_size", udp)
	if batch == nil || batch.Count == 0 {
		t.Fatalf("no batched sends observed: %+v", batch)
	}
}

// TestDatagramClientDataLoss checks that a dialed client's fault options
// act on its UDP data plane: half its inbound datagrams are dropped, the
// drops land on its udp bundle, and it decodes the exact bytes anyway.
func TestDatagramClientDataLoss(t *testing.T) {
	t.Parallel()
	content := testContent(4000)
	cfg := testConfig()
	cfg.SourceInterval = time.Millisecond
	WithDatagramData()(&cfg)
	srv, err := ListenAndServe("127.0.0.1:0", content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := Dial(ctx, srv.Addr(), "127.0.0.1:0", cfg, WithClientDataLoss(0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("%v (progress %.2f)", err, c.Progress())
	}
	got, err := c.Content()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
	snap := c.Snapshot()
	drops := snap.Metric("ncast_transport_frames_dropped_total", obs.Label{Key: "transport", Value: "udp"})
	if drops == nil || drops.Value == 0 {
		t.Fatalf("no injected drops on the client's udp bundle: %+v", drops)
	}
}

// TestClientFaultsNeedDataPlane checks that Dial validates its config and
// that both client constructors reject the data-plane fault options where
// there is no data plane, instead of ignoring them. Dial fails before it
// binds or dials, so no server is needed.
func TestClientFaultsNeedDataPlane(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	datagram := testConfig()
	WithDatagramData()(&datagram)
	outOfRange := datagram
	outOfRange.DataLoss = 2
	lossWithoutPlane := testConfig()
	lossWithoutPlane.DataLoss = 0.05
	for _, tc := range []struct {
		name string
		cfg  Config
		opts []ClientOption
	}{
		{"data loss 2", outOfRange, nil},
		{"data loss without DatagramData", lossWithoutPlane, nil},
		{"client data loss without DatagramData", testConfig(), []ClientOption{WithClientDataLoss(0.5)}},
		{"client data delay without DatagramData", testConfig(), []ClientOption{WithClientDataDelay(time.Millisecond)}},
	} {
		if c, err := Dial(ctx, "127.0.0.1:1", "127.0.0.1:0", tc.cfg, tc.opts...); err == nil {
			c.Close()
			t.Errorf("Dial with %s: no error", tc.name)
		}
	}

	s, err := NewSession(testContent(512), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AddClient(ctx, WithClientDataLoss(0.5)); err == nil {
		t.Error("AddClient with client data loss on a single-fabric session: no error")
	}
	if _, err := s.AddClient(ctx, WithClientDataDelay(time.Millisecond)); err == nil {
		t.Error("AddClient with client data delay on a single-fabric session: no error")
	}
}

// TestSessionDatagramMode exercises the in-memory analogue: with
// DatagramData the session runs two fabrics, and the loss knob applies
// only to the data fabric — control stays reliable, mirroring TCP+UDP.
func TestSessionDatagramMode(t *testing.T) {
	t.Parallel()
	content := testContent(1500)
	cfg := testConfig()
	WithDatagramData()(&cfg)
	s, err := NewSession(content, cfg, WithLoss(0.05), WithNetworkSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := s.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for i, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("client %d: %v (progress %.2f)", i, err, c.Progress())
		}
		got, err := c.Content()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("content mismatch in lossy datagram session")
		}
	}
	// Both planes are labeled in the session registry.
	snap := s.Snapshot()
	if p := snap.Metric("ncast_transport_frames_sent_total", obs.Label{Key: "transport", Value: "data"}); p == nil || p.Value == 0 {
		t.Fatalf("no frames on the data fabric: %+v", p)
	}
	if p := snap.Metric("ncast_transport_frames_sent_total", obs.Label{Key: "transport", Value: "ctrl"}); p == nil || p.Value == 0 {
		t.Fatalf("no frames on the control fabric: %+v", p)
	}
}
