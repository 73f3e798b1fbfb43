package obs

import (
	"testing"
	"time"
)

func TestSeqDelta(t *testing.T) {
	cases := []struct {
		seq, last uint32
		want      int32
	}{
		{seq: 5, last: 4, want: 1},
		{seq: 4, last: 4, want: 0},
		{seq: 3, last: 4, want: -1},
		{seq: 0, last: SeqMod - 1, want: 1},       // wrap forward
		{seq: SeqMod - 1, last: 0, want: -1},      // reorder across the wrap
		{seq: 100, last: SeqMod - 3, want: 103},   // burst across the wrap
		{seq: 1 << 22, last: 0, want: 1 << 22},    // large positive gap
		{seq: 0, last: 1 << 22, want: -(1 << 22)}, // large negative gap
	}
	for _, c := range cases {
		if got := seqDelta(c.seq, c.last); got != c.want {
			t.Errorf("seqDelta(%d, %d) = %d, want %d", c.seq, c.last, got, c.want)
		}
	}
}

func TestLinkTrackerLossLedger(t *testing.T) {
	lt := NewLinkTracker(0)
	// In-order 0..9, then a gap (10..14 lost, 15 arrives), a duplicate,
	// and one late packet filling a presumed hole back in.
	for seq := int32(0); seq < 10; seq++ {
		lt.ObserveFrame("p", 0, seq, 100, 1)
	}
	lt.ObserveFrame("p", 0, 15, 100, 2) // 5 presumed lost
	lt.ObserveFrame("p", 0, 15, 100, 3) // duplicate
	lt.ObserveFrame("p", 0, 12, 100, 4) // late arrival: reorder, hole filled

	reports := lt.Compact(0)
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	r := reports[0]
	if r.Peer != "p" {
		t.Fatalf("peer = %q, want p", r.Peer)
	}
	if r.Frames != 13 {
		t.Errorf("frames = %d, want 13", r.Frames)
	}
	if r.Bytes != 1300 {
		t.Errorf("bytes = %d, want 1300", r.Bytes)
	}
	// Expected: 10 in-order + 6 for the jump to 15 = 16. Received: 10 + 1
	// (seq 15) + 1 (late seq 12) = 12 → 4/16 = 250‰.
	if r.Expected != 16 || r.Received != 12 {
		t.Errorf("ledger = %d/%d, want 12/16", r.Received, r.Expected)
	}
	if r.Dup != 1 || r.Reordered != 1 {
		t.Errorf("dup/reordered = %d/%d, want 1/1", r.Dup, r.Reordered)
	}
	if r.LossPermille != 250 {
		t.Errorf("loss = %d‰, want 250‰", r.LossPermille)
	}
	if r.LastRecvUnixNanos != 4 {
		t.Errorf("last recv = %d, want 4", r.LastRecvUnixNanos)
	}
}

func TestLinkTrackerSeqWrap(t *testing.T) {
	lt := NewLinkTracker(0)
	lt.ObserveFrame("p", 0, SeqMod-2, 10, 1)
	lt.ObserveFrame("p", 0, SeqMod-1, 10, 2)
	lt.ObserveFrame("p", 0, 0, 10, 3) // wraps, no loss
	lt.ObserveFrame("p", 0, 1, 10, 4)
	r := lt.Compact(0)[0]
	if r.Expected != 4 || r.Received != 4 || r.LossPermille != 0 {
		t.Errorf("wrap ledger = %d/%d loss %d‰, want 4/4 0‰", r.Received, r.Expected, r.LossPermille)
	}
}

func TestLinkTrackerThreadsIndependent(t *testing.T) {
	lt := NewLinkTracker(0)
	// Interleaved threads from the same peer each keep their own ledger:
	// thread 1 restarting at 0 must not read as a huge reorder on thread 0.
	lt.ObserveFrame("p", 0, 100, 10, 1)
	lt.ObserveFrame("p", 1, 0, 10, 2)
	lt.ObserveFrame("p", 0, 101, 10, 3)
	lt.ObserveFrame("p", 1, 1, 10, 4)
	r := lt.Compact(0)[0]
	if r.Expected != 4 || r.Received != 4 || r.Reordered != 0 {
		t.Errorf("two-thread ledger = %d/%d reorders %d, want 4/4 0", r.Received, r.Expected, r.Reordered)
	}
}

func TestLinkTrackerRTTEwma(t *testing.T) {
	lt := NewLinkTracker(0)
	lt.ObserveRTT("p", 1000)
	r := lt.Compact(0)[0]
	if r.RTTEwmaNanos != 1000 || r.JitterNanos != 500 || r.RTTSamples != 1 {
		t.Fatalf("first sample: rtt=%d jitter=%d n=%d, want 1000/500/1", r.RTTEwmaNanos, r.JitterNanos, r.RTTSamples)
	}
	// Second sample 2000: jitter += (|2000-1000| - 500)/4 = 625;
	// rtt += (2000-1000)/8 = 1125.
	lt.ObserveRTT("p", 2000)
	r = lt.Compact(0)[0]
	if r.RTTEwmaNanos != 1125 || r.JitterNanos != 625 || r.RTTSamples != 2 {
		t.Fatalf("second sample: rtt=%d jitter=%d n=%d, want 1125/625/2", r.RTTEwmaNanos, r.JitterNanos, r.RTTSamples)
	}
	// Non-positive samples are discarded.
	lt.ObserveRTT("p", 0)
	lt.ObserveRTT("p", -5)
	if r := lt.Compact(0)[0]; r.RTTSamples != 2 {
		t.Errorf("non-positive RTT accepted: n=%d", r.RTTSamples)
	}
}

func TestLinkTrackerPeerCap(t *testing.T) {
	lt := NewLinkTracker(2)
	lt.ObserveFrame("a", 0, 0, 10, 1)
	lt.ObserveFrame("b", 0, 0, 10, 1)
	lt.ObserveFrame("c", 0, 0, 10, 1) // over cap: dropped
	lt.ObservePacket("c", true)       // still over cap
	if got := len(lt.Compact(0)); got != 2 {
		t.Errorf("tracked peers = %d, want 2", got)
	}
	if got := lt.Dropped(); got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
}

func TestLinkTrackerCompactOrderAndLimit(t *testing.T) {
	lt := NewLinkTracker(0)
	lt.ObserveFrame("quiet", 0, 0, 10, 1)
	for seq := int32(0); seq < 3; seq++ {
		lt.ObserveFrame("busy", 0, seq, 10, 1)
	}
	lt.ObservePacket("busy", true)
	lt.ObservePacket("busy", true)
	lt.ObservePacket("busy", false)
	reports := lt.Compact(0)
	if len(reports) != 2 || reports[0].Peer != "busy" {
		t.Fatalf("order: got %+v, want busy first", reports)
	}
	if reports[0].InnovationPermille != 666 {
		t.Errorf("innovation = %d‰, want 666‰", reports[0].InnovationPermille)
	}
	if got := lt.Compact(1); len(got) != 1 || got[0].Peer != "busy" {
		t.Errorf("Compact(1) = %+v, want just busy", got)
	}
}

func TestLinkTrackerNilSafe(t *testing.T) {
	var lt *LinkTracker
	lt.ObserveFrame("p", 0, 1, 10, 1)
	lt.ObservePacket("p", true)
	lt.ObserveRTT("p", 100)
	if lt.Compact(0) != nil || lt.Dropped() != 0 {
		t.Error("nil tracker returned data")
	}
}

func TestLinkCollectorIngestSnapshot(t *testing.T) {
	c := NewLinkCollector(0, nil)
	c.Ingest(7, "node-7", []LinkReport{
		{Peer: "node-3", Frames: 10, Bytes: 1000, Expected: 100, Received: 90, LossPermille: 100,
			RTTEwmaNanos: 2000, JitterNanos: 300, RTTSamples: 4, Innovative: 8, Redundant: 2, InnovationPermille: 800},
	})
	time.Sleep(20 * time.Millisecond)
	c.Ingest(7, "node-7", []LinkReport{
		{Peer: "node-3", Frames: 20, Bytes: 3000, Expected: 200, Received: 180, LossPermille: 100,
			RTTEwmaNanos: 2000, JitterNanos: 300, RTTSamples: 8, Innovative: 16, Redundant: 4, InnovationPermille: 800},
	})
	snap := c.Snapshot(time.Minute, map[string]uint64{"node-3": 3})
	if len(snap.Edges) != 1 {
		t.Fatalf("edges = %d, want 1", len(snap.Edges))
	}
	e := snap.Edges[0]
	if e.Reporter != 7 || e.ReporterAddr != "node-7" || e.Peer != "node-3" || e.PeerID != 3 {
		t.Errorf("edge identity = %+v", e)
	}
	if !e.Fresh || e.LossPermille != 100 || e.RTTEwmaNanos != 2000 {
		t.Errorf("edge payload = %+v", e)
	}
	// 2000 bytes arrived between the two ingests ~20ms apart; the exact
	// rate depends on scheduling, but it must be positive and sane.
	if e.GoodputBytesPerSec <= 0 || e.GoodputBytesPerSec > 2000*1000 {
		t.Errorf("goodput = %d B/s, want positive and bounded", e.GoodputBytesPerSec)
	}
	if snap.Worst == nil || snap.Worst.FreshEdges != 1 {
		t.Errorf("worst digest = %+v", snap.Worst)
	}
	// A zero staleness horizon means nothing goes stale.
	if snap := c.Snapshot(0, nil); !snap.Edges[0].Fresh {
		t.Error("zero horizon marked edge stale")
	}
	// A tiny horizon marks it stale and excludes it from the digest.
	time.Sleep(2 * time.Millisecond)
	stale := c.Snapshot(time.Millisecond, nil)
	if stale.Edges[0].Fresh {
		t.Error("edge still fresh past the horizon")
	}
	if stale.Worst.FreshEdges != 0 || stale.Worst.WorstPeer != "" {
		t.Errorf("stale digest = %+v, want empty", stale.Worst)
	}
}

func TestLinkCollectorRemoveAndEvict(t *testing.T) {
	c := NewLinkCollector(2, nil)
	c.Ingest(1, "a", []LinkReport{{Peer: "x", Frames: 1}})
	c.Ingest(2, "b", []LinkReport{{Peer: "x", Frames: 1}})
	c.Ingest(3, "c", []LinkReport{{Peer: "x", Frames: 1}}) // evicts reporter 1's edge
	snap := c.Snapshot(0, nil)
	if len(snap.Edges) != 2 || snap.Dropped != 1 {
		t.Fatalf("edges=%d dropped=%d, want 2/1", len(snap.Edges), snap.Dropped)
	}
	if snap.Edges[0].Reporter != 2 || snap.Edges[1].Reporter != 3 {
		t.Errorf("FIFO eviction kept %+v", snap.Edges)
	}
	c.Remove(2)
	snap = c.Snapshot(0, nil)
	if len(snap.Edges) != 1 || snap.Edges[0].Reporter != 3 {
		t.Errorf("after Remove(2): %+v", snap.Edges)
	}
	// Removing a reporter that never reported is a no-op.
	c.Remove(99)
	if got := len(c.Snapshot(0, nil).Edges); got != 1 {
		t.Errorf("Remove(99) changed edges: %d", got)
	}
}

func TestLinkCollectorNilSafe(t *testing.T) {
	var c *LinkCollector
	c.Ingest(1, "a", []LinkReport{{Peer: "x"}})
	c.Remove(1)
	if c.Summary(0, nil) != nil {
		t.Error("nil collector returned a summary")
	}
	if snap := c.Snapshot(0, nil); len(snap.Edges) != 0 {
		t.Error("nil collector returned edges")
	}
}

func TestSummarizeLinksWorstPeer(t *testing.T) {
	// node-9 is the bad actor: every edge it reports shows inbound loss
	// (receive-side trouble), while everyone else's links are clean.
	edges := []LinkEdge{
		{Reporter: 9, ReporterAddr: "node-9", Peer: "node-1", Fresh: true,
			Expected: 1000, Received: 900, LossPermille: 100},
		{Reporter: 9, ReporterAddr: "node-9", Peer: "node-2", Fresh: true,
			Expected: 1000, Received: 910, LossPermille: 90},
		{Reporter: 1, ReporterAddr: "node-1", Peer: "node-2", Fresh: true,
			Expected: 1000, Received: 1000},
		{Reporter: 2, ReporterAddr: "node-2", Peer: "node-1", Fresh: true,
			Expected: 1000, Received: 1000},
		// Too few samples to rank, despite terrible loss.
		{Reporter: 1, ReporterAddr: "node-1", Peer: "node-5", Fresh: true,
			Expected: 4, Received: 1, LossPermille: 750},
		// Stale: ignored entirely.
		{Reporter: 3, ReporterAddr: "node-3", Peer: "node-9",
			Expected: 1000, Received: 100, LossPermille: 900},
	}
	s := summarizeLinks(edges, map[string]uint64{"node-9": 9})
	if s.Edges != 6 || s.FreshEdges != 5 {
		t.Fatalf("edges=%d fresh=%d, want 6/5", s.Edges, s.FreshEdges)
	}
	// Aggregate inbound for node-9: 1810/2000 received → 95‰.
	if s.WorstPeer != "node-9" || s.WorstPeerLossPermille != 95 {
		t.Errorf("worst = %q @ %d‰, want node-9 @ 95‰", s.WorstPeer, s.WorstPeerLossPermille)
	}
	if s.WorstPeerID != 9 {
		t.Errorf("worst id = %d, want 9", s.WorstPeerID)
	}
	if len(s.WorstEdges) != 2 || s.WorstEdges[0].LossPermille != 100 {
		t.Errorf("worst edges = %+v", s.WorstEdges)
	}

	// Send-side trouble: node-9's loss shows up on edges others report
	// about it. Each reporter's clean inbound edges dilute its own inbound
	// aggregate, so the outbound aggregate names node-9.
	edges = []LinkEdge{
		{Reporter: 1, ReporterAddr: "node-1", Peer: "node-9", Fresh: true,
			Expected: 500, Received: 400, LossPermille: 200},
		{Reporter: 1, ReporterAddr: "node-1", Peer: "node-2", Fresh: true,
			Expected: 500, Received: 500},
		{Reporter: 2, ReporterAddr: "node-2", Peer: "node-9", Fresh: true,
			Expected: 500, Received: 450, LossPermille: 100},
		{Reporter: 2, ReporterAddr: "node-2", Peer: "node-1", Fresh: true,
			Expected: 500, Received: 500},
	}
	s = summarizeLinks(edges, nil)
	// Outbound aggregate for node-9: 850/1000 → 150‰; every reporter's
	// inbound aggregate is at most 100‰.
	if s.WorstPeer != "node-9" || s.WorstPeerLossPermille != 150 {
		t.Errorf("send-side worst = %q @ %d‰, want node-9 @ 150‰", s.WorstPeer, s.WorstPeerLossPermille)
	}

	if summarizeLinks(nil, nil) != nil {
		t.Error("empty edge list produced a summary")
	}
}

func TestSummarizeLinksMaxRTT(t *testing.T) {
	edges := []LinkEdge{
		{Reporter: 1, ReporterAddr: "node-1", Peer: "node-2", Fresh: true,
			RTTSamples: 4, RTTEwmaNanos: 1_000_000},
		{Reporter: 2, ReporterAddr: "node-2", Peer: "node-3", Fresh: true,
			RTTSamples: 4, RTTEwmaNanos: 5_000_000},
		// No samples: RTT fields are zero-value noise, not a measurement.
		{Reporter: 3, ReporterAddr: "node-3", Peer: "node-4", Fresh: true},
	}
	s := summarizeLinks(edges, nil)
	if s.MaxRTTPeer != "node-3" || s.MaxRTTEwmaNanos != 5_000_000 {
		t.Errorf("max rtt = %q @ %d, want node-3 @ 5ms", s.MaxRTTPeer, s.MaxRTTEwmaNanos)
	}
}
