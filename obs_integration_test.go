package ncast

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ncast/internal/obs"
)

// TestSnapshotConsistency downloads through an instrumented session and
// checks that the snapshot numbers agree with the protocol's invariants:
// at completion every node has absorbed exactly generations × generation
// size innovative packets, no more and no fewer.
func TestSnapshotConsistency(t *testing.T) {
	t.Parallel()
	cfg := testConfig() // GenSize=8, PacketSize=64
	content := testContent(1536)
	gens := 3 // 1536 bytes / (8 packets × 64 bytes)
	s, err := NewSession(content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const clients = 3
	for i := 0; i < clients; i++ {
		c, err := s.AddClient(ctx)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		defer func() { _ = c }()
		if err := c.Wait(ctx); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// The tracker learns about completions asynchronously.
	var snap obs.OverlaySnapshot
	waitFor(t, 10*time.Second, "every completion to reach the tracker", func() bool {
		snap = s.Snapshot()
		return snap.Overlay != nil && snap.Overlay.Completed == clients
	})

	if snap.Overlay.Nodes != clients {
		t.Errorf("Overlay.Nodes = %d, want %d", snap.Overlay.Nodes, clients)
	}
	if snap.Overlay.K != cfg.K || snap.Overlay.DefaultDegree != cfg.D {
		t.Errorf("Overlay k/d = %d/%d, want %d/%d",
			snap.Overlay.K, snap.Overlay.DefaultDegree, cfg.K, cfg.D)
	}
	total := 0
	for _, n := range snap.Overlay.DegreeDist {
		total += n
	}
	if total != clients {
		t.Errorf("degree distribution covers %d nodes, want %d", total, clients)
	}

	// Every node needs exactly full rank in innovative packets; the
	// counters are final once all generations decoded.
	wantInnovative := float64(clients * gens * cfg.GenSize)
	if got := snap.SumMetric("ncast_node_innovative_total"); got != wantInnovative {
		t.Errorf("sum innovative = %v, want %v", got, wantInnovative)
	}
	if got := snap.SumMetric("ncast_node_rank"); got != wantInnovative {
		t.Errorf("sum rank gauges = %v, want %v", got, wantInnovative)
	}
	if got := snap.SumMetric("ncast_node_generations_done"); got != float64(clients*gens) {
		t.Errorf("sum generations done = %v, want %d", got, clients*gens)
	}
	if got := snap.SumMetric("ncast_tracker_hellos_total"); got < float64(clients) {
		t.Errorf("hellos = %v, want >= %d", got, clients)
	}
	if got := snap.SumMetric("ncast_rlnc_generations_completed_total"); got != float64(clients*gens) {
		t.Errorf("rlnc generations completed = %v, want %d", got, clients*gens)
	}
	// Every received packet is either innovative or redundant. Packets
	// keep flowing after completion (heartbeats, source pump), and the
	// snapshot reads the two counters at slightly different instants, so
	// only the one-sided bound is exact: redundant is read after
	// received and can only have grown in between.
	recv := snap.SumMetric("ncast_node_received_total")
	redundant := snap.SumMetric("ncast_node_redundant_total")
	if recv < wantInnovative {
		t.Errorf("received %v < innovative %v", recv, wantInnovative)
	}
	if recv > wantInnovative+redundant {
		t.Errorf("received %v > innovative %v + redundant %v", recv, wantInnovative, redundant)
	}
	if snap.SumMetric("ncast_transport_frames_sent_total") == 0 {
		t.Error("transport sent counter stayed zero")
	}
	if len(snap.Recent) == 0 {
		t.Error("no trace events recorded")
	}
}

// TestSnapshotDisabled checks the DisableObs path: no registry, but the
// overlay health part of the snapshot still works. The session also runs
// stats reports, a §5 congestion round and a good-bye, so every tracker
// handler records into its bundle of nil series.
func TestSnapshotDisabled(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.DisableObs = true
	cfg.StatsInterval = 50 * time.Millisecond
	s, err := NewSession(testContent(512), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Observability() != nil {
		t.Fatal("registry present despite DisableObs")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var clients []*Client
	for i := 0; i < 2; i++ {
		c, err := s.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	waitFor(t, 10*time.Second, "both clients' stats reports", func() bool {
		n := 0
		for _, node := range s.ClusterSnapshot().Nodes {
			if node.Complete {
				n++
			}
		}
		return n == len(clients)
	})
	c := clients[0]
	if err := c.Congest(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the congested client to drop a thread", func() bool { return c.Degree() == cfg.D-1 })
	if err := c.Uncongest(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the client to regrow its thread", func() bool { return c.Degree() == cfg.D })
	if err := clients[1].Leave(ctx); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Overlay == nil || snap.Overlay.Nodes != 1 {
		t.Fatalf("overlay health = %+v", snap.Overlay)
	}
	if snap.Metrics != nil || snap.Recent != nil {
		t.Fatal("disabled session produced metric data")
	}
}

// TestObsHTTPEndpointLive runs the acceptance scenario end to end: a TCP
// server with a live observability endpoint, a client downloading through
// it, and /metrics + /debug/overlay reflecting the traffic.
func TestObsHTTPEndpointLive(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	content := testContent(1024)
	srv, err := ListenAndServe("127.0.0.1:0", content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs, err := obs.Serve("127.0.0.1:0", srv.Observability(), srv.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()

	before := fetch(t, "http://"+hs.Addr()+"/metrics")
	if !strings.Contains(before, "ncast_overlay_nodes 0") {
		t.Fatalf("expected empty overlay before join:\n%s", firstLines(before, 20))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client, err := Dial(ctx, srv.Addr(), "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	after := fetch(t, "http://"+hs.Addr()+"/metrics")
	for _, want := range []string{
		"ncast_overlay_nodes 1",
		"ncast_tracker_hellos_total",
		"ncast_source_packets_total",
		`ncast_transport_frames_sent_total{endpoint="server"}`,
	} {
		if !strings.Contains(after, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err := http.Get("http://" + hs.Addr() + "/debug/overlay")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.OverlaySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Overlay == nil || snap.Overlay.Nodes != 1 {
		t.Fatalf("overlay = %+v", snap.Overlay)
	}
	if snap.SumMetric("ncast_source_packets_total") == 0 {
		t.Error("source packet counter zero in /debug/overlay")
	}

	// The client side serves its own registry with node-level health.
	chs, err := obs.Serve("127.0.0.1:0", client.Observability(), client.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer chs.Close()
	resp, err = http.Get("http://" + chs.Addr() + "/debug/overlay")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var csnap obs.OverlaySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&csnap); err != nil {
		t.Fatal(err)
	}
	if csnap.Node == nil || !csnap.Node.Complete || csnap.Node.Progress != 1 {
		t.Fatalf("node health = %+v", csnap.Node)
	}
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
