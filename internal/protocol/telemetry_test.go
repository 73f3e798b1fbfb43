package protocol

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ncast/internal/obs"
	"ncast/internal/transport"
)

// TestFleetTelemetry is the fleet-telemetry acceptance test: a source and
// five receivers over a fault-injected transport (5% receive loss), one of
// them additionally delay-injected. Every node must appear in the cluster
// view with its decode completion per generation, positive decode-delay
// quantiles, and the delayed node must surface as the slowest decoder.
func TestFleetTelemetry(t *testing.T) {
	content := make([]byte, 4*8*32) // 4 generations of 8 × 32-byte packets
	for i := range content {
		content[i] = byte(i * 13)
	}
	reg := obs.NewRegistry()
	const statsInterval = 150 * time.Millisecond
	h := startChurnHarness(t, 8, 2, content, func(cfg *TrackerConfig) {
		cfg.StatsInterval = statsInterval
		cfg.Obs = obs.NewTrackerMetrics(reg)
	})

	const lossy = 0.05
	nodes := make([]*churnNode, 0, 5)
	for i := 0; i < 4; i++ {
		nodes = append(nodes, h.join(t, fmt.Sprintf("n%d", i), &transport.FaultConfig{
			RecvLoss: lossy, Seed: int64(i + 1),
		}))
	}
	// The straggler: same loss, plus a fixed per-frame receive delay.
	straggler := h.join(t, "slow", &transport.FaultConfig{
		RecvLoss: lossy, RecvDelay: 3 * time.Millisecond, Seed: 99,
	})
	nodes = append(nodes, straggler)

	for _, n := range nodes {
		select {
		case <-n.node.Completed():
		case <-time.After(60 * time.Second):
			t.Fatalf("%s incomplete", n.addr)
		}
	}

	// Serve the tracker's aggregation exactly as ncast-server does and poll
	// /debug/cluster until every node's post-completion report has landed.
	srv := httptest.NewServer(obs.Handler(reg, nil, obs.WithClusterSnapshot(h.tracker.ClusterSnapshot)))
	defer srv.Close()

	var snap obs.ClusterSnapshot
	waitFor(t, 20*time.Second, "cluster view to converge", func() bool {
		resp, err := http.Get(srv.URL + "/debug/cluster")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content-type = %q", ct)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		snap = obs.ClusterSnapshot{}
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("cluster JSON: %v\n%s", err, raw)
		}
		return fleetComplete(snap, len(nodes))
	})

	if snap.StaleAfterMillis != (3 * statsInterval).Milliseconds() {
		t.Errorf("stale horizon = %dms", snap.StaleAfterMillis)
	}
	// Every node reports decode completion for every generation, positive
	// decode-delay quantiles, and overhead at or above 1000 permille.
	for _, n := range snap.Nodes {
		if !n.Fresh {
			t.Errorf("node %d stale (age %dms)", n.ID, n.AgeMillis)
		}
		if len(n.GenRanks) != 4 {
			t.Fatalf("node %d gen ranks = %v", n.ID, n.GenRanks)
		}
		for gi, rk := range n.GenRanks {
			if rk != 8 {
				t.Errorf("node %d generation %d rank = %d, want 8", n.ID, gi, rk)
			}
		}
		if n.DelayP50Nanos <= 0 || n.DelayP90Nanos < n.DelayP50Nanos || n.DelayP99Nanos < n.DelayP90Nanos {
			t.Errorf("node %d delay quantiles = %d/%d/%d", n.ID, n.DelayP50Nanos, n.DelayP90Nanos, n.DelayP99Nanos)
		}
		if n.OverheadPermille < 1000 {
			t.Errorf("node %d overhead = %d permille", n.ID, n.OverheadPermille)
		}
		if n.Received == 0 || n.Innovative == 0 || n.Received-n.Innovative != n.Redundant {
			t.Errorf("node %d flow counters = %d/%d/%d", n.ID, n.Received, n.Innovative, n.Redundant)
		}
	}
	if len(snap.Generations) != 4 {
		t.Fatalf("generations = %+v", snap.Generations)
	}
	for _, g := range snap.Generations {
		if g.Decoded != len(nodes) || g.Reporting != len(nodes) {
			t.Errorf("generation %d decoded %d/%d", g.Index, g.Decoded, g.Reporting)
		}
	}
	if snap.FleetDelayP50Nanos <= 0 || snap.FleetDelayP99Nanos < snap.FleetDelayP50Nanos {
		t.Errorf("fleet quantiles = %d/%d", snap.FleetDelayP50Nanos, snap.FleetDelayP99Nanos)
	}
	// The delay-injected node must surface as the slowest decoder.
	if snap.SlowestID != straggler.node.ID() {
		slow := snap.Node(snap.SlowestID)
		inj := snap.Node(straggler.node.ID())
		t.Errorf("slowest = %+v, injected straggler = %+v", slow, inj)
	}

	// Reporting stayed within its budget: at most one control message per
	// node per interval, with slack for the final in-flight tick.
	if m := reg.Snapshot(); m != nil {
		for _, p := range m {
			if p.Name != "ncast_tracker_stats_reports_total" {
				continue
			}
			elapsed := time.Since(snap.At.Add(-20 * time.Second)) // generous upper bound on run time
			budget := float64(len(nodes)) * (float64(elapsed)/float64(statsInterval) + 2)
			if p.Value > budget {
				t.Errorf("stats reports = %v, budget %v", p.Value, budget)
			}
			if p.Value < float64(len(nodes)) {
				t.Errorf("stats reports = %v, want >= %d", p.Value, len(nodes))
			}
		}
	}
}

// fleetComplete reports whether every expected node appears fresh and
// fully decoded in the snapshot.
func fleetComplete(snap obs.ClusterSnapshot, want int) bool {
	if len(snap.Nodes) != want {
		return false
	}
	for _, n := range snap.Nodes {
		if !n.Complete || n.DelayP50Nanos <= 0 {
			return false
		}
	}
	return true
}

// TestStatsReportRoundTrip pins the MsgStatsReport wire schema.
func TestStatsReportRoundTrip(t *testing.T) {
	t.Parallel()
	in := StatsReport{
		ID: 7, Rank: 24, MaxRank: 32, GenRanks: []int{8, 8, 8, 0}, GensDone: 3,
		TotalGens: 4, Received: 40, Innovative: 24, Redundant: 16, Complaints: 1,
		LeaseRenewals: 5, QueueDepth: 2, DelayP50Nanos: 100, DelayP90Nanos: 200,
		DelayP99Nanos: 300, OverheadPermille: 1250,
	}
	frame, err := EncodeControl(MsgStatsReport, in)
	if err != nil {
		t.Fatal(err)
	}
	typ, body, err := SplitControl(frame)
	if err != nil || typ != MsgStatsReport {
		t.Fatalf("split: %v type %d", err, typ)
	}
	var out StatsReport
	if err := UnmarshalControl(typ, body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Rank != 24 || len(out.GenRanks) != 4 || out.GenRanks[3] != 0 ||
		out.Redundant != 16 || out.DelayP99Nanos != 300 || out.OverheadPermille != 1250 {
		t.Fatalf("round trip = %+v", out)
	}
}

// TestTrackerDropsUnknownReports: a report from a swept or never-joined id
// must not resurrect the node in the cluster view.
func TestTrackerDropsUnknownReports(t *testing.T) {
	t.Parallel()
	content := make([]byte, 8*32)
	h := startChurnHarness(t, 4, 2, content, func(cfg *TrackerConfig) {
		cfg.StatsInterval = 100 * time.Millisecond
	})
	h.tracker.handleStatsReport(StatsReport{ID: 424242, Rank: 1})
	if snap := h.tracker.ClusterSnapshot(); snap.Node(424242) != nil {
		t.Fatalf("unknown id stored: %+v", snap.Nodes)
	}
}

// TestLinkSnapshotFollowsReports: the fleet link matrix is a view of the
// stats reports the tracker holds. Each stored report contributes one edge
// per scorecard, goodput comes from the byte delta against the report it
// replaced, an unknown reporter adds nothing, and a departed node's edges
// leave with its report.
func TestLinkSnapshotFollowsReports(t *testing.T) {
	t.Parallel()
	// No stats interval: the nodes send no reports of their own, so every
	// report below is the test's, and nothing goes stale.
	h := startChurnHarness(t, 4, 2, randContent(8*32), nil)
	a := h.join(t, "a", nil)
	b := h.join(t, "b", nil)
	idA, idB := a.node.ID(), b.node.ID()

	h.tracker.handleStatsReport(StatsReport{ID: idA, Links: []obs.LinkReport{
		{Peer: "b", Frames: 10, Bytes: 1000},
		{Peer: "tracker", Frames: 5, Bytes: 500},
	}})
	const gap = 20 * time.Millisecond
	time.Sleep(gap)
	h.tracker.handleStatsReport(StatsReport{ID: idA, Links: []obs.LinkReport{
		{Peer: "b", Frames: 30, Bytes: 3000, Expected: 40, Received: 38, LossPermille: 50},
		{Peer: "tracker", Frames: 6, Bytes: 600},
	}})
	h.tracker.handleStatsReport(StatsReport{ID: idB, Links: []obs.LinkReport{{Peer: "a", Frames: 7, Bytes: 700}}})
	h.tracker.handleStatsReport(StatsReport{ID: 424242, Links: []obs.LinkReport{{Peer: "a", Frames: 1}}})

	snap := h.tracker.LinkSnapshot()
	if len(snap.Edges) != 3 {
		t.Fatalf("edges = %+v, want a>b, a>tracker, b>a", snap.Edges)
	}
	ab := snap.Edges[0]
	if idA > idB {
		ab = snap.Edges[1]
	}
	if ab.Reporter != idA || ab.ReporterAddr != "a" || ab.Peer != "b" || ab.PeerID != idB ||
		ab.Frames != 30 || ab.LossPermille != 50 || !ab.Fresh {
		t.Errorf("a>b edge = %+v", ab)
	}
	// 2000 bytes between reports at least gap apart.
	if bound := int64(2000 * time.Second / gap); ab.GoodputBytesPerSec <= 0 || ab.GoodputBytesPerSec > bound {
		t.Errorf("a>b goodput = %d B/s, want in (0, %d]", ab.GoodputBytesPerSec, bound)
	}
	for _, e := range snap.Edges {
		if e.Reporter == 424242 {
			t.Errorf("unknown reporter's edge kept: %+v", e)
		}
	}
	if s := h.tracker.ClusterSnapshot().Links; s == nil || s.Edges != 3 {
		t.Fatalf("cluster link digest = %+v, want 3 edges", s)
	}

	if err := a.node.Leave(h.ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-a.node.Left():
	case <-time.After(5 * time.Second):
		t.Fatal("leave never acknowledged")
	}
	h.waitNodes(t, 1, 5*time.Second)
	// Only b's report is left; its edge naming the departed a stays.
	snap = h.tracker.LinkSnapshot()
	if len(snap.Edges) != 1 || snap.Edges[0].Reporter != idB || snap.Edges[0].Peer != "a" {
		t.Errorf("edges after a's good-bye = %+v, want only b>a", snap.Edges)
	}
	if s := h.tracker.ClusterSnapshot().Links; s == nil || s.Edges != 1 {
		t.Errorf("cluster link digest after a's good-bye = %+v, want 1 edge", s)
	}
}
