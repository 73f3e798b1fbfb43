package obs

import (
	"sort"
	"time"
)

// Link telemetry: data frames carry a per-(sender, thread) 24-bit
// sequence number, keepalives carry an echo timestamp pair, and
// every node folds both into per-peer scorecards (LinkTracker): loss
// estimated from sequence gaps, RTT/jitter EWMAs from keepalive echoes,
// innovative-vs-redundant counts per parent. Scorecards ride the stats
// reports; the tracker keeps each node's latest report and AssembleLinks
// turns them into the fleet link matrix served at /debug/links and
// digested into ClusterSnapshot.

// SeqMod is the sequence-number space of the per-(sender, thread)
// data-frame counter: 24 bits, wrapping. Deltas are interpreted as signed
// 24-bit values, so reordering within ±2^23 frames is told apart from
// wrap-around.
const SeqMod = 1 << 24

// seqDelta returns the signed 24-bit distance from last to seq.
func seqDelta(seq uint32, last uint32) int32 {
	return int32((seq-last)<<8) >> 8
}

// LinkReport is the compacted, wire-shipped scorecard for one inbound
// peer link. Counters are cumulative over the link's lifetime (the
// tracker computes rates from deltas between reports). It rides inside
// StatsReport, so field names are wire/API surface.
type LinkReport struct {
	Peer               string `json:"peer"`
	Frames             uint64 `json:"frames"`
	Bytes              uint64 `json:"bytes"`
	Expected           uint64 `json:"expected,omitempty"`
	Received           uint64 `json:"received,omitempty"`
	Dup                uint64 `json:"dup,omitempty"`
	Reordered          uint64 `json:"reordered,omitempty"`
	LossPermille       int    `json:"loss_permille"`
	RTTEwmaNanos       int64  `json:"rtt_ewma_ns,omitempty"`
	JitterNanos        int64  `json:"jitter_ns,omitempty"`
	RTTSamples         uint64 `json:"rtt_samples,omitempty"`
	Innovative         uint64 `json:"innovative"`
	Redundant          uint64 `json:"redundant"`
	InnovationPermille int    `json:"innovation_permille"`
	LastRecvUnixNanos  int64  `json:"last_recv_unix_ns,omitempty"`
}

// DefaultLinkPeerCap bounds how many peers one node tracks — parents
// plus the occasional stale sender after a redirect — and how many
// threads each peer's sequence ledger follows. Degree is small, so the
// cap exists only to keep a confused peer from growing the table: a
// frame's thread field is 15 bits wide and is scored before any gating.
const DefaultLinkPeerCap = 64

// linkScore is the mutable per-peer accumulator behind a LinkReport,
// including the per-thread sequence ledger. A parent feeds a node only
// the few threads it holds, so seqs is scanned in place.
type linkScore struct {
	frames, bytes                     uint64
	expected, received, dup, reorders uint64
	innovative, redundant             uint64
	rttEwma, jitterEwma               float64
	rttSamples                        uint64
	lastRecvNanos                     int64
	seqs                              []threadSeq
}

// threadSeq is the last in-order sequence number seen on one thread.
type threadSeq struct {
	thread int
	last   uint32
}

// seq returns the thread's ledger entry, or nil when it has none yet.
func (s *linkScore) seq(thread int) *threadSeq {
	for i := range s.seqs {
		if s.seqs[i].thread == thread {
			return &s.seqs[i]
		}
	}
	return nil
}

// LinkTracker maintains one node's per-peer link scorecards. It is
// called from the data-frame receive path, so the steady state (known
// peer, known thread) must not allocate; all methods are no-ops on a nil
// receiver. It has no lock: the node scores and compacts under its own.
type LinkTracker struct {
	cap     int
	peers   map[string]*linkScore
	dropped uint64
}

// NewLinkTracker creates a tracker bounded to capacity peers, and to
// capacity threads per peer (0 or less = DefaultLinkPeerCap).
func NewLinkTracker(capacity int) *LinkTracker {
	if capacity <= 0 {
		capacity = DefaultLinkPeerCap
	}
	return &LinkTracker{
		cap:   capacity,
		peers: make(map[string]*linkScore),
	}
}

// score returns the peer's accumulator, creating it if the cap allows;
// nil when the peer table is full.
func (t *LinkTracker) score(peer string) *linkScore {
	s, ok := t.peers[peer]
	if !ok {
		if len(t.peers) >= t.cap {
			t.dropped++
			return nil
		}
		s = &linkScore{}
		t.peers[peer] = s
	}
	return s
}

// ObserveFrame accounts one inbound data-plane frame from peer, carrying
// the sender's per-thread sequence number seq. A frame on a thread past
// the per-peer cap counts toward frames and bytes but not the loss
// ledger, and is counted in Dropped.
func (t *LinkTracker) ObserveFrame(peer string, thread int, seq int32, frameBytes int, nowNanos int64) {
	if t == nil {
		return
	}
	s := t.score(peer)
	if s == nil {
		return
	}
	s.frames++
	s.bytes += uint64(frameBytes)
	s.lastRecvNanos = nowNanos
	if st := s.seq(thread); st == nil {
		if len(s.seqs) < t.cap {
			s.seqs = append(s.seqs, threadSeq{thread: thread, last: uint32(seq)})
			s.expected++
			s.received++
		} else {
			t.dropped++
		}
	} else {
		switch d := seqDelta(uint32(seq), st.last); {
		case d > 0:
			// d-1 frames went missing (for now); a late arrival below
			// fills its presumed hole back in.
			s.expected += uint64(d)
			s.received++
			st.last = uint32(seq)
		case d == 0:
			s.dup++
		default:
			s.reorders++
			s.received++
		}
	}
}

// ObservePacket accounts one decoded coding-layer verdict for a packet
// that arrived from peer: innovative (rank-increasing) or redundant.
func (t *LinkTracker) ObservePacket(peer string, innovative bool) {
	if t == nil {
		return
	}
	if s := t.score(peer); s != nil {
		if innovative {
			s.innovative++
		} else {
			s.redundant++
		}
	}
}

// ObserveRTT folds one keepalive round-trip sample into the peer's
// EWMAs (RFC 6298 gains: 1/8 for the mean, 1/4 for the deviation).
func (t *LinkTracker) ObserveRTT(peer string, rttNanos int64) {
	if t == nil || rttNanos <= 0 {
		return
	}
	if s := t.score(peer); s != nil {
		rtt := float64(rttNanos)
		if s.rttSamples == 0 {
			s.rttEwma = rtt
			s.jitterEwma = rtt / 2
		} else {
			dev := rtt - s.rttEwma
			if dev < 0 {
				dev = -dev
			}
			s.jitterEwma += (dev - s.jitterEwma) / 4
			s.rttEwma += (rtt - s.rttEwma) / 8
		}
		s.rttSamples++
	}
}

// Dropped reports how many observations were discarded because the peer
// table, or a peer's thread ledger, was full.
func (t *LinkTracker) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// lossPermille estimates one-way loss from the sequence ledger.
func lossPermille(expected, received uint64) int {
	if expected == 0 {
		return 0
	}
	if received >= expected {
		return 0
	}
	return int((expected - received) * 1000 / expected)
}

// Compact snapshots the scorecards as wire-ready reports, busiest links
// first, keeping at most max (0 = no limit). Counters are cumulative —
// compacting does not reset them.
func (t *LinkTracker) Compact(max int) []LinkReport {
	if t == nil {
		return nil
	}
	out := make([]LinkReport, 0, len(t.peers))
	for peer, s := range t.peers {
		r := LinkReport{
			Peer:              peer,
			Frames:            s.frames,
			Bytes:             s.bytes,
			Expected:          s.expected,
			Received:          s.received,
			Dup:               s.dup,
			Reordered:         s.reorders,
			LossPermille:      lossPermille(s.expected, s.received),
			RTTEwmaNanos:      int64(s.rttEwma),
			JitterNanos:       int64(s.jitterEwma),
			RTTSamples:        s.rttSamples,
			Innovative:        s.innovative,
			Redundant:         s.redundant,
			LastRecvUnixNanos: s.lastRecvNanos,
		}
		if n := s.innovative + s.redundant; n > 0 {
			r.InnovationPermille = int(s.innovative * 1000 / n)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frames != out[j].Frames {
			return out[i].Frames > out[j].Frames
		}
		return out[i].Peer < out[j].Peer
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// LinkMetrics is the Prometheus-facing ncast_link_* family, fed by the
// tracker as scorecards arrive. Nil-safe like every bundle.
type LinkMetrics struct {
	Reports    *Counter
	Loss       *Histogram
	RTT        *Histogram
	Jitter     *Histogram
	Innovation *Histogram
	Goodput    *Histogram
}

// NewLinkMetrics registers the link family (nil registry → nil-safe
// no-op bundle).
func NewLinkMetrics(r *Registry) *LinkMetrics {
	return &LinkMetrics{
		Reports: r.Counter("ncast_link_reports_total",
			"Stats reports carrying per-peer link scorecards"),
		Loss: r.Histogram("ncast_link_loss_permille",
			"Per-link one-way loss estimate from sequence gaps (permille)",
			LossPermilleBuckets()),
		RTT: r.Histogram("ncast_link_rtt_nanos",
			"Per-link smoothed round-trip time from keepalive echoes",
			LatencyBuckets()),
		Jitter: r.Histogram("ncast_link_jitter_nanos",
			"Per-link RTT mean deviation from keepalive echoes",
			LatencyBuckets()),
		Innovation: r.Histogram("ncast_link_innovation_ratio",
			"Innovative fraction of coded packets per link", RatioBuckets()),
		Goodput: r.Histogram("ncast_link_goodput_bytes_per_sec",
			"Per-link inbound data-plane goodput between reports",
			ExpBuckets(1024, 4, 10)),
	}
}

// LossPermilleBuckets covers loss estimates from lossless through total
// blackout, dense near the small rates that matter for repair decisions.
func LossPermilleBuckets() []float64 {
	return []float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
}

// LinkRow is one reporter's scorecards as the tracker holds them: its
// latest stats report's links and when that arrived, plus the links of
// the report it replaced, from which per-edge goodput is derived.
type LinkRow struct {
	Reporter     uint64
	ReporterAddr string
	At           time.Time
	Links        []LinkReport
	PrevAt       time.Time
	Prev         []LinkReport
}

// goodput is l's inbound byte rate between the previous report and this
// one: the same peer's byte delta over the gap between their arrivals.
// Zero when there is no earlier sample of the peer to difference against.
func (row *LinkRow) goodput(l *LinkReport) float64 {
	dt := row.At.Sub(row.PrevAt)
	if row.PrevAt.IsZero() || dt <= 0 {
		return 0
	}
	for i := range row.Prev {
		if p := &row.Prev[i]; p.Peer == l.Peer {
			if l.Bytes < p.Bytes {
				return 0
			}
			return float64(l.Bytes-p.Bytes) / dt.Seconds()
		}
	}
	return 0
}

// Observe feeds the fleet histograms with one arriving report's
// scorecards.
func (m *LinkMetrics) Observe(row *LinkRow) {
	if m == nil || len(row.Links) == 0 {
		return
	}
	for i := range row.Links {
		r := &row.Links[i]
		m.Loss.Observe(float64(r.LossPermille))
		if r.RTTSamples > 0 {
			m.RTT.Observe(float64(r.RTTEwmaNanos))
			m.Jitter.Observe(float64(r.JitterNanos))
		}
		if n := r.Innovative + r.Redundant; n > 0 {
			m.Innovation.Observe(float64(r.Innovative) / float64(n))
		}
		if g := row.goodput(r); g > 0 {
			m.Goodput.Observe(g)
		}
	}
	m.Reports.Inc()
}

// LinkEdge is one directed link of the fleet matrix: reporter measured
// its inbound traffic from peer.
type LinkEdge struct {
	Reporter           uint64 `json:"reporter"`
	ReporterAddr       string `json:"reporter_addr"`
	Peer               string `json:"peer"`
	PeerID             uint64 `json:"peer_id,omitempty"`
	AgeMillis          int64  `json:"age_ms"`
	Fresh              bool   `json:"fresh"`
	Frames             uint64 `json:"frames"`
	Bytes              uint64 `json:"bytes"`
	Expected           uint64 `json:"expected,omitempty"`
	Received           uint64 `json:"received,omitempty"`
	Dup                uint64 `json:"dup,omitempty"`
	Reordered          uint64 `json:"reordered,omitempty"`
	LossPermille       int    `json:"loss_permille"`
	RTTEwmaNanos       int64  `json:"rtt_ewma_ns,omitempty"`
	JitterNanos        int64  `json:"jitter_ns,omitempty"`
	RTTSamples         uint64 `json:"rtt_samples,omitempty"`
	Innovative         uint64 `json:"innovative"`
	Redundant          uint64 `json:"redundant"`
	InnovationPermille int    `json:"innovation_permille"`
	GoodputBytesPerSec int64  `json:"goodput_bytes_per_sec,omitempty"`
}

// LinkSnapshot is the /debug/links document: every reported link edge
// plus the worst-links digest.
type LinkSnapshot struct {
	At               time.Time    `json:"at"`
	StaleAfterMillis int64        `json:"stale_after_ms"`
	Edges            []LinkEdge   `json:"edges,omitempty"`
	Worst            *LinkSummary `json:"worst,omitempty"`
}

// LinkSummary is the compact link digest embedded in ClusterSnapshot:
// the worst edges and the peer whose links look worst overall, so a
// straggler is attributable to a specific bad edge.
type LinkSummary struct {
	Edges                 int        `json:"edges"`
	FreshEdges            int        `json:"fresh_edges"`
	WorstEdges            []LinkEdge `json:"worst_edges,omitempty"`
	WorstPeer             string     `json:"worst_peer,omitempty"`
	WorstPeerID           uint64     `json:"worst_peer_id,omitempty"`
	WorstPeerLossPermille int        `json:"worst_peer_loss_permille,omitempty"`
	MaxRTTPeer            string     `json:"max_rtt_peer,omitempty"`
	MaxRTTEwmaNanos       int64      `json:"max_rtt_ewma_ns,omitempty"`
}

// minLossSamples is the sequence-ledger floor below which a loss
// estimate is too noisy to rank a link as "worst".
const minLossSamples = 32

// AssembleLinks builds the fleet link matrix from the reporters' rows:
// one edge per scorecard, as fresh as the report it arrived in. idOf maps
// node addresses to overlay ids so edges can name their peer's id (nil is
// fine). Output is deterministic: edges by reporter id then peer address.
func AssembleLinks(now time.Time, staleAfter time.Duration, rows []LinkRow, idOf map[string]uint64) LinkSnapshot {
	snap := LinkSnapshot{At: now, StaleAfterMillis: staleAfter.Milliseconds()}
	for i := range rows {
		row := &rows[i]
		age := now.Sub(row.At)
		for j := range row.Links {
			r := &row.Links[j]
			snap.Edges = append(snap.Edges, LinkEdge{
				Reporter:           row.Reporter,
				ReporterAddr:       row.ReporterAddr,
				Peer:               r.Peer,
				PeerID:             idOf[r.Peer],
				AgeMillis:          age.Milliseconds(),
				Fresh:              staleAfter <= 0 || age <= staleAfter,
				Frames:             r.Frames,
				Bytes:              r.Bytes,
				Expected:           r.Expected,
				Received:           r.Received,
				Dup:                r.Dup,
				Reordered:          r.Reordered,
				LossPermille:       r.LossPermille,
				RTTEwmaNanos:       r.RTTEwmaNanos,
				JitterNanos:        r.JitterNanos,
				RTTSamples:         r.RTTSamples,
				Innovative:         r.Innovative,
				Redundant:          r.Redundant,
				InnovationPermille: r.InnovationPermille,
				GoodputBytesPerSec: int64(row.goodput(r)),
			})
		}
	}
	sort.Slice(snap.Edges, func(i, j int) bool {
		if snap.Edges[i].Reporter != snap.Edges[j].Reporter {
			return snap.Edges[i].Reporter < snap.Edges[j].Reporter
		}
		return snap.Edges[i].Peer < snap.Edges[j].Peer
	})
	snap.Worst = summarizeLinks(snap.Edges, idOf)
	return snap
}

// summarizeLinks derives the worst-links digest from an assembled edge
// list. A node's aggregate loss is the worse of its two directions:
// what it measures inbound (it reports lossy parents — receive-side
// trouble) and what others measure about traffic it sent (send-side
// trouble); either way the node is the common factor of its bad edges.
func summarizeLinks(edges []LinkEdge, idOf map[string]uint64) *LinkSummary {
	if len(edges) == 0 {
		return nil
	}
	s := &LinkSummary{Edges: len(edges)}
	type agg struct {
		expected, received uint64
	}
	inbound := map[string]*agg{}  // keyed by reporter addr
	outbound := map[string]*agg{} // keyed by peer addr
	var fresh []LinkEdge
	for _, e := range edges {
		if !e.Fresh {
			continue
		}
		s.FreshEdges++
		fresh = append(fresh, e)
		if e.RTTSamples > 0 && e.RTTEwmaNanos > s.MaxRTTEwmaNanos {
			s.MaxRTTEwmaNanos = e.RTTEwmaNanos
			s.MaxRTTPeer = e.Peer
		}
		if e.Expected < minLossSamples {
			continue
		}
		in := inbound[e.ReporterAddr]
		if in == nil {
			in = &agg{}
			inbound[e.ReporterAddr] = in
		}
		in.expected += e.Expected
		in.received += e.Received
		out := outbound[e.Peer]
		if out == nil {
			out = &agg{}
			outbound[e.Peer] = out
		}
		out.expected += e.Expected
		out.received += e.Received
	}
	if s.FreshEdges == 0 {
		return s
	}
	sort.Slice(fresh, func(i, j int) bool {
		if fresh[i].LossPermille != fresh[j].LossPermille {
			return fresh[i].LossPermille > fresh[j].LossPermille
		}
		if fresh[i].Expected != fresh[j].Expected {
			return fresh[i].Expected > fresh[j].Expected
		}
		if fresh[i].Reporter != fresh[j].Reporter {
			return fresh[i].Reporter < fresh[j].Reporter
		}
		return fresh[i].Peer < fresh[j].Peer
	})
	for _, e := range fresh {
		if len(s.WorstEdges) == 3 {
			break
		}
		if e.Expected >= minLossSamples && e.LossPermille > 0 {
			s.WorstEdges = append(s.WorstEdges, e)
		}
	}
	worst := -1
	addrs := make([]string, 0, len(inbound)+len(outbound))
	for a := range inbound {
		addrs = append(addrs, a)
	}
	for a := range outbound {
		if _, dup := inbound[a]; !dup {
			addrs = append(addrs, a)
		}
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		loss := 0
		if in := inbound[a]; in != nil {
			if l := lossPermille(in.expected, in.received); l > loss {
				loss = l
			}
		}
		if out := outbound[a]; out != nil {
			if l := lossPermille(out.expected, out.received); l > loss {
				loss = l
			}
		}
		if loss > worst {
			worst = loss
			s.WorstPeer = a
			s.WorstPeerLossPermille = loss
		}
	}
	if s.WorstPeer != "" {
		s.WorstPeerID = idOf[s.WorstPeer]
	}
	return s
}
