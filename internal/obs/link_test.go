package obs

import (
	"fmt"
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

	// The thread field is 15 bits wide and is scored before any gating:
	// one peer cycling every thread value must not grow its ledger past
	// the cap. Frames past it still count toward frames and bytes.
	lt = NewLinkTracker(0)
	const threads = 1 << 15
	for th := 0; th < threads; th++ {
		lt.ObserveFrame("p", th, 0, 10, 1)
	}
	if got := len(lt.peers["p"].seqs); got > DefaultLinkPeerCap {
		t.Errorf("ledger holds %d threads, want at most %d", got, DefaultLinkPeerCap)
	}
	if got := lt.Dropped(); got != threads-DefaultLinkPeerCap {
		t.Errorf("dropped = %d, want %d", got, threads-DefaultLinkPeerCap)
	}
	r := lt.Compact(0)[0]
	if r.Frames != threads || r.Bytes != 10*threads || r.Expected != DefaultLinkPeerCap || r.Received != DefaultLinkPeerCap {
		t.Errorf("report = %+v, want %d frames and a %d-thread ledger", r, threads, DefaultLinkPeerCap)
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

// TestLinkCollectorIngestSnapshot: AssembleLinks names each edge by its
// reporter and peer, dates it by its report, and derives goodput from the
// byte delta against the replaced report; Observe feeds every histogram.
func TestLinkCollectorIngestSnapshot(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	row := LinkRow{
		Reporter: 7, ReporterAddr: "node-7",
		PrevAt: t0,
		Prev: []LinkReport{
			{Peer: "node-3", Frames: 10, Bytes: 1000, Expected: 100, Received: 90, LossPermille: 100,
				RTTEwmaNanos: 2000, JitterNanos: 300, RTTSamples: 4, Innovative: 8, Redundant: 2, InnovationPermille: 800},
		},
		At: t0.Add(20 * time.Millisecond),
		Links: []LinkReport{
			{Peer: "node-3", Frames: 20, Bytes: 3000, Expected: 200, Received: 180, LossPermille: 100,
				RTTEwmaNanos: 2000, JitterNanos: 300, RTTSamples: 8, Innovative: 16, Redundant: 4, InnovationPermille: 800},
		},
	}
	now := row.At.Add(time.Second)
	snap := AssembleLinks(now, time.Minute, []LinkRow{row}, map[string]uint64{"node-3": 3})
	if len(snap.Edges) != 1 {
		t.Fatalf("edges = %d, want 1", len(snap.Edges))
	}
	e := snap.Edges[0]
	if e.Reporter != 7 || e.ReporterAddr != "node-7" || e.Peer != "node-3" || e.PeerID != 3 {
		t.Errorf("edge identity = %+v", e)
	}
	if !e.Fresh || e.AgeMillis != 1000 || e.LossPermille != 100 || e.RTTEwmaNanos != 2000 || e.Frames != 20 {
		t.Errorf("edge payload = %+v", e)
	}
	// 2000 bytes arrived between the two reports 20ms apart.
	if e.GoodputBytesPerSec != 100_000 {
		t.Errorf("goodput = %d B/s, want 100000", e.GoodputBytesPerSec)
	}
	if snap.Worst == nil || snap.Worst.FreshEdges != 1 {
		t.Errorf("worst digest = %+v", snap.Worst)
	}
	// A zero staleness horizon means nothing goes stale.
	if snap := AssembleLinks(now, 0, []LinkRow{row}, nil); !snap.Edges[0].Fresh {
		t.Error("zero horizon marked edge stale")
	}
	// A horizon shorter than the report's age marks it stale and excludes
	// it from the digest.
	stale := AssembleLinks(now, time.Millisecond, []LinkRow{row}, nil)
	if stale.Edges[0].Fresh {
		t.Error("edge still fresh past the horizon")
	}
	if stale.Worst.FreshEdges != 0 || stale.Worst.WorstPeer != "" {
		t.Errorf("stale digest = %+v, want empty", stale.Worst)
	}

	// The arriving report feeds the fleet histograms, goodput included.
	reg := NewRegistry()
	NewLinkMetrics(reg).Observe(&row)
	counts := map[string]float64{}
	for _, p := range reg.Snapshot() {
		if p.Type == "histogram" {
			counts[p.Name] = float64(p.Count)
		} else {
			counts[p.Name] = p.Value
		}
	}
	for _, name := range []string{"ncast_link_reports_total", "ncast_link_loss_permille",
		"ncast_link_rtt_nanos", "ncast_link_jitter_nanos", "ncast_link_innovation_ratio",
		"ncast_link_goodput_bytes_per_sec"} {
		if counts[name] != 1 {
			t.Errorf("%s = %v, want 1", name, counts[name])
		}
	}
}

// TestLinkCollectorRemoveAndEvict: edges come out sorted by reporter and
// peer, and a scorecard with no earlier sample of its peer has no goodput.
func TestLinkCollectorRemoveAndEvict(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	rows := []LinkRow{
		// A reporter's first report: nothing to difference against.
		{Reporter: 3, ReporterAddr: "c", At: t0, Links: []LinkReport{{Peer: "x", Frames: 1, Bytes: 500}}},
		// A later report whose predecessor did not name peer y.
		{Reporter: 2, ReporterAddr: "b", At: t0.Add(time.Second), PrevAt: t0,
			Prev:  []LinkReport{{Peer: "x", Bytes: 100}},
			Links: []LinkReport{{Peer: "x", Frames: 2, Bytes: 300}, {Peer: "y", Frames: 1, Bytes: 900}}},
	}
	snap := AssembleLinks(t0.Add(time.Second), 0, rows, nil)
	if len(snap.Edges) != 3 {
		t.Fatalf("edges = %d, want 3", len(snap.Edges))
	}
	// Sorted by reporter, then peer.
	got := []string{}
	for _, e := range snap.Edges {
		got = append(got, e.ReporterAddr+">"+e.Peer)
	}
	if fmt.Sprint(got) != "[b>x b>y c>x]" {
		t.Errorf("edge order = %v", got)
	}
	if g := snap.Edges[0].GoodputBytesPerSec; g != 200 {
		t.Errorf("b>x goodput = %d, want 200", g)
	}
	if g := snap.Edges[1].GoodputBytesPerSec; g != 0 {
		t.Errorf("b>y goodput = %d, want 0 (no earlier sample)", g)
	}
	if g := snap.Edges[2].GoodputBytesPerSec; g != 0 {
		t.Errorf("c>x goodput = %d, want 0 (first report)", g)
	}
	reg := NewRegistry()
	NewLinkMetrics(reg).Observe(&rows[0])
	for _, p := range reg.Snapshot() {
		if p.Name == "ncast_link_goodput_bytes_per_sec" && p.Count != 0 {
			t.Errorf("first report observed goodput %+v", p)
		}
	}
}

// TestLinkCollectorNilSafe: nil metrics and empty rows are no-ops.
func TestLinkCollectorNilSafe(t *testing.T) {
	var m *LinkMetrics
	m.Observe(&LinkRow{Links: []LinkReport{{Peer: "x"}}})
	NewLinkMetrics(nil).Observe(&LinkRow{Links: []LinkReport{{Peer: "x"}}})
	snap := AssembleLinks(time.Now(), 0, nil, nil)
	if len(snap.Edges) != 0 || snap.Worst != nil {
		t.Errorf("no rows assembled %+v", snap)
	}
	// A reporter without scorecards contributes no edge.
	if snap := AssembleLinks(time.Now(), 0, []LinkRow{{Reporter: 1}}, nil); len(snap.Edges) != 0 {
		t.Errorf("empty row gave edges %+v", snap.Edges)
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
