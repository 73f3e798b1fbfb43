package ncast

import (
	"context"
	"encoding/json"
	"regexp"
	"sync"
	"testing"
	"time"

	"ncast/internal/obs"
	"ncast/internal/transport"
)

// metricNameRE is the repository's metric naming contract: every exported
// series is ncast_-prefixed lowercase snake case, so dashboards can select
// the whole fleet with one prefix match.
var metricNameRE = regexp.MustCompile(`^ncast_[a-z0-9_]+$`)

// TestMetricNameLint instantiates every metrics bundle the codebase
// defines and lints each registered family name against the naming
// contract. New bundles automatically fall under the lint because they
// register into the same registry.
func TestMetricNameLint(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	obs.NewTrackerMetrics(reg)
	obs.NewSourceMetrics(reg)
	nm := obs.NewNodeMetrics(reg, "lint-node")
	obs.NewTransportMetrics(reg, "lint-ep")
	obs.NewTraceMetrics(reg)
	obs.NewLinkMetrics(reg)
	obs.NewRuntimeMetrics(reg)
	// A generation's lifecycle record feeds the decode-delay and overhead
	// histograms on its decode; force both.
	var life obs.GenLife
	life.Observe("lint-node", 0, 1, time.Now().Add(-time.Millisecond).UnixNano(), 1, 0, nm, nil)

	points := reg.Snapshot()
	if len(points) == 0 {
		t.Fatal("no metrics registered")
	}
	seen := map[string]bool{}
	for _, p := range points {
		if seen[p.Name] {
			continue
		}
		seen[p.Name] = true
		if !metricNameRE.MatchString(p.Name) {
			t.Errorf("metric %q violates %s", p.Name, metricNameRE)
		}
	}
	// Spot-check that the new telemetry series are among them.
	for _, want := range []string{
		"ncast_node_decode_delay_nanos",
		"ncast_node_coding_overhead_ratio",
		"ncast_tracker_stats_reports_total",
		"ncast_trace_hop_depth",
		"ncast_trace_innovation_ratio",
		"ncast_link_loss_permille",
		"ncast_link_rtt_nanos",
		"ncast_runtime_heap_bytes",
		"ncast_runtime_goroutines",
	} {
		if !seen[want] {
			t.Errorf("missing series %s", want)
		}
	}
}

// TestSessionMetricNames runs a real session and lints every live series —
// catches names built at runtime that the static bundle sweep can't see.
func TestSessionMetricNames(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	sess, err := NewSession(testContent(4*8*64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := sess.AddClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, p := range sess.Snapshot().Metrics {
		if !metricNameRE.MatchString(p.Name) {
			t.Errorf("metric %q violates %s", p.Name, metricNameRE)
		}
	}
}

// TestSessionRecvBatchHistogram runs a broadcast on one fabric and on two
// planes and reads ncast_transport_recv_batch_size: each endpoint whose
// frames all arrive through RecvBatch (the nodes', and every plane of a
// two-plane session, which its pumps read) must account for each frame it
// received in exactly one batch, of at most RecvBatchLen frames.
func TestSessionRecvBatchHistogram(t *testing.T) {
	t.Parallel()
	for _, datagram := range []bool{false, true} {
		t.Run(map[bool]string{false: "fabric", true: "dual"}[datagram], func(t *testing.T) {
			t.Parallel()
			cfg := testConfig()
			if datagram {
				WithDatagramData()(&cfg)
			}
			sess, err := NewSession(testContent(4*8*64), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < 3; i++ {
				c, err := sess.AddClient(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Wait(ctx); err != nil {
					t.Fatal(err)
				}
			}
			// Closing stops every receive loop, so the counters are final.
			sess.Close()
			points := sess.Observability().Snapshot()
			recv := map[string]float64{}
			for _, p := range points {
				if p.Name == "ncast_transport_frames_recv_total" {
					recv[labelString(p.Labels)] = p.Value
				}
			}
			batched, data := 0, false
			for _, p := range points {
				if p.Name != "ncast_transport_recv_batch_size" || p.Count == 0 {
					continue
				}
				batched++
				data = data || p.Labels["transport"] == "data"
				mean := p.Sum / float64(p.Count)
				t.Logf("%v: %d batches, mean %.2f frames", p.Labels, p.Count, mean)
				if mean < 1 || mean > transport.RecvBatchLen {
					t.Errorf("%v: mean batch %.2f outside [1, %d]", p.Labels, mean, transport.RecvBatchLen)
				}
				if got := recv[labelString(p.Labels)]; p.Sum != got {
					t.Errorf("%v: batches hold %.0f frames, endpoint received %.0f", p.Labels, p.Sum, got)
				}
			}
			if batched < 3 {
				t.Errorf("%d endpoints observed batches, want one per client at least", batched)
			}
			if datagram && !data {
				t.Error("no data plane observed a batch")
			}
		})
	}
}

// labelString renders a label set in a fixed order, as a map key.
func labelString(labels map[string]string) string {
	return labels["endpoint"] + "|" + labels["transport"]
}

// TestTraceLive runs a real broadcast with tracing on every generation
// and checks the end-to-end pipeline: traced frames propagate through
// recoding nodes, hop spans ride the stats reports, and the tracker
// assembles a multi-level dissemination tree with per-depth innovation.
func TestTraceLive(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.K, cfg.D = 4, 2 // narrow curtain so the overlay grows real depth
	cfg.TraceRate = 1
	cfg.StatsInterval = 100 * time.Millisecond
	sess, err := NewSession(testContent(4*8*64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var clients []*Client
	for i := 0; i < 8; i++ {
		c, err := sess.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for _, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Hop spans ride the periodic stats reports; poll until multi-hop
	// structure shows up. With 8 nodes on 4 threads at degree 2, some node
	// must sit below another, so depth > 1 is guaranteed by construction.
	// Each node reports on its own stats clock, so a single deep node's
	// report can arrive before any shallower one: wait for two depth rows.
	var snap obs.TraceSnapshot
	waitFor(t, 60*time.Second, "multi-hop trace structure to assemble", func() bool {
		snap = sess.TraceSnapshot()
		return snap.SampledGenerations > 0 && snap.MaxHopDepth > 1 && len(snap.Depths) >= 2
	})
	for _, d := range snap.Depths {
		if d.Received <= 0 || d.Nodes <= 0 {
			t.Fatalf("empty depth row %+v", d)
		}
		if d.InnovationPermille < 0 || d.InnovationPermille > 1000 {
			t.Fatalf("innovation ratio out of range: %+v", d)
		}
	}
	// Every assembled generation must have a coherent tree: levels sorted,
	// depths positive, worst path no earlier than the emit stamp.
	for _, g := range snap.Generations {
		if g.TraceID == 0 || len(g.Tree) == 0 {
			t.Fatalf("degenerate generation %+v", g)
		}
		prev := 0
		for _, lvl := range g.Tree {
			if lvl.Depth <= prev || len(lvl.Nodes) == 0 {
				t.Fatalf("generation %d has malformed tree %+v", g.Gen, g.Tree)
			}
			prev = lvl.Depth
		}
		if g.WorstPathNanos < 0 {
			t.Fatalf("generation %d negative worst path", g.Gen)
		}
	}
	// The cluster view carries the trace digest.
	if cs := sess.ClusterSnapshot(); cs.Trace == nil || cs.Trace.MaxHopDepth < 2 {
		t.Fatalf("cluster snapshot trace digest = %+v", cs.Trace)
	}
	// The fleet histograms saw traced traffic.
	osnap := sess.Snapshot()
	if p := osnap.Metric("ncast_trace_hop_records_total"); p == nil || p.Value <= 0 {
		t.Fatalf("hop-records counter = %+v", p)
	}
}

// TestTraceDisabledByDefault pins the zero-cost default: with TraceRate
// unset no hop spans are recorded, no trace state reaches the tracker, and
// the trace view stays empty.
func TestTraceDisabledByDefault(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.StatsInterval = 100 * time.Millisecond
	sess, err := NewSession(testContent(2*8*64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := sess.AddClient(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	snap := sess.TraceSnapshot()
	if snap.SampledGenerations != 0 || len(snap.Generations) != 0 {
		t.Fatalf("untraced session assembled generations: %+v", snap)
	}
	if cs := sess.ClusterSnapshot(); cs.Trace != nil {
		t.Fatalf("untraced cluster snapshot carries a trace digest: %+v", cs.Trace)
	}
}

// TestTimelineEvents drives a session with a generation-event sink — the
// feed behind ncast-sim -timeline — and checks the stream is valid JSONL
// with monotone per-generation phase transitions at every node.
func TestTimelineEvents(t *testing.T) {
	t.Parallel()
	var (
		mu     sync.Mutex
		events []GenEvent
	)
	cfg := testConfig()
	cfg.StatsInterval = 100 * time.Millisecond
	sess, err := NewSession(testContent(4*8*64), cfg, WithGenEvents(func(ev GenEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := sess.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for _, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no lifecycle events")
	}
	order := map[string]int{"first_packet": 0, "rank25": 1, "rank50": 2, "rank75": 3, "decoded": 4}
	type key struct {
		node string
		gen  uint32
	}
	last := map[key]int{}
	sawDecoded := map[key]bool{}
	for _, ev := range events {
		// Each event must survive a JSON round trip (the JSONL contract).
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("marshal %+v: %v", ev, err)
		}
		var back GenEvent
		if err := json.Unmarshal(raw, &back); err != nil || back.Phase != ev.Phase {
			t.Fatalf("round trip %s: %v", raw, err)
		}
		rank, ok := order[ev.Phase]
		if !ok {
			t.Fatalf("unknown phase %q", ev.Phase)
		}
		k := key{node: ev.Node, gen: ev.Gen}
		if prev, seen := last[k]; seen && rank <= prev {
			t.Fatalf("node %s generation %d: phase %s after rank %d", ev.Node, ev.Gen, ev.Phase, prev)
		}
		last[k] = rank
		if ev.Phase == "decoded" {
			sawDecoded[k] = true
			if ev.DelayNanos <= 0 {
				t.Errorf("node %s generation %d decoded without delay", ev.Node, ev.Gen)
			}
			if ev.OverheadPermille < 1000 {
				t.Errorf("node %s generation %d overhead %d", ev.Node, ev.Gen, ev.OverheadPermille)
			}
		}
	}
	// Every client decoded every generation, so every (node, generation)
	// stream must terminate in a decoded event.
	gens := 4
	if want := len(clients) * gens; len(sawDecoded) != want {
		t.Fatalf("decoded streams = %d, want %d", len(sawDecoded), want)
	}
}

// TestLossyPeerLinkDrill is the link-telemetry acceptance drill: in a
// six-client datagram session with 10% one-way inbound loss injected on
// exactly one client (plus a 1ms receive delay), the fleet link matrix
// must localize the fault — the lossy client's aggregated inbound loss
// estimate converges within ±30‰ of the injected rate, the cluster
// digest names it as the worst peer, and its RTT EWMAs reflect the
// injected delay.
func TestLossyPeerLinkDrill(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.StatsInterval = 100 * time.Millisecond
	// Slow the pump so the serialized 1ms receive delay on the faulty
	// client stays well under the inbound inter-frame spacing.
	cfg.SourceInterval = 20 * time.Millisecond
	WithDatagramData()(&cfg)
	// The source stops sending a thread the generations its subtree has
	// decoded, so the estimators only see the download itself: 128
	// generations give the lossy client about 1 000 inbound frames, which
	// put ±30‰ near three standard deviations of its estimate.
	sess, err := NewSession(testContent(128*8*64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const injected = 0.10
	lossy, err := sess.AddClient(ctx,
		WithClientDataLoss(injected),
		WithClientDataDelay(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for i := 0; i < 5; i++ {
		c, err := sess.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for _, c := range append(clients, lossy) {
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Stats reports keep arriving after decode. Poll until the matrix
	// converges on the fault.
	lossyID := lossy.ID()
	var lastSnap obs.LinkSnapshot
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("last link snapshot for lossy peer %d: %+v", lossyID, lastSnap)
		}
	})
	waitFor(t, 60*time.Second, "link matrix to localize the lossy peer", func() bool {
		snap := sess.LinkSnapshot()
		lastSnap = snap
		var expected, received uint64
		maxRTT := int64(0)
		for _, e := range snap.Edges {
			if e.Reporter != lossyID {
				continue
			}
			expected += e.Expected
			received += e.Received
			if e.RTTEwmaNanos > maxRTT {
				maxRTT = e.RTTEwmaNanos
			}
		}
		if expected < 200 {
			return false
		}
		loss := float64(expected-received) / float64(expected)
		digest := sess.ClusterSnapshot().Links
		if loss >= injected-0.03 && loss <= injected+0.03 &&
			digest != nil && digest.WorstPeerID == lossyID &&
			maxRTT >= int64(900*time.Microsecond) {
			if digest.WorstPeerLossPermille < 50 {
				t.Fatalf("digest loss estimate %d‰ too low for a 10%% lossy peer", digest.WorstPeerLossPermille)
			}
			return true
		}
		return false
	})
}

// TestSingleFabricLinkLoss: the link matrix needs no datagram plane. In a
// single-fabric session that drops 10% of every frame, each reporter's
// aggregate loss estimate must land within ±30‰ of 100‰, and its links
// must carry RTT samples from keepalive echoes. The estimators only see
// the download, since no data flows to a decoded subtree, so the content
// is sized for each reporter to take in well over the 1 000 frames the
// check needs.
func TestSingleFabricLinkLoss(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.StatsInterval = 100 * time.Millisecond
	sess, err := NewSession(testContent(256*8*64), cfg, WithLoss(0.10), WithNetworkSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var clients []*Client
	for i := 0; i < 4; i++ {
		c, err := sess.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for _, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	var lastSnap obs.LinkSnapshot
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("last link snapshot: %+v", lastSnap)
		}
	})
	waitFor(t, 60*time.Second, "every reporter's loss estimate to converge on 10%", func() bool {
		lastSnap = sess.LinkSnapshot()
		for _, c := range clients {
			var expected, received, rttSamples uint64
			for _, e := range lastSnap.Edges {
				if e.Reporter == c.ID() {
					expected += e.Expected
					received += e.Received
					rttSamples += e.RTTSamples
				}
			}
			// 1000 samples put ±30‰ at about three standard deviations.
			if expected < 1000 || rttSamples == 0 {
				return false
			}
			if loss := (expected - received) * 1000 / expected; loss < 70 || loss > 130 {
				return false
			}
		}
		return true
	})
}

// TestClusterSnapshotLive checks the session-level aggregation end to end:
// after a full decode, every client appears complete in the cluster view.
func TestClusterSnapshotLive(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.StatsInterval = 80 * time.Millisecond
	sess, err := NewSession(testContent(2*8*64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var clients []*Client
	for i := 0; i < 2; i++ {
		c, err := sess.AddClient(ctx)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for _, c := range clients {
		if err := c.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var snap obs.ClusterSnapshot
	waitFor(t, 10*time.Second, "every client complete in the cluster view", func() bool {
		snap = sess.ClusterSnapshot()
		done := len(snap.Nodes) == len(clients)
		for _, n := range snap.Nodes {
			if !n.Complete {
				done = false
			}
		}
		return done
	})
	for _, c := range clients {
		if snap.Node(c.ID()) == nil {
			t.Fatalf("client %d missing from cluster view", c.ID())
		}
	}
}
