package obs

import (
	"sort"
	"sync"
	"time"
)

// Link telemetry: data frames carry a per-(sender, thread) 24-bit
// sequence number, keepalives carry an echo timestamp pair, and
// every node folds both into per-peer scorecards (LinkTracker): loss
// estimated from sequence gaps, RTT/jitter EWMAs from keepalive echoes,
// innovative-vs-redundant counts per parent. Scorecards ride the stats
// reports; the tracker's LinkCollector assembles them into a fleet link
// matrix served at /debug/links and digested into ClusterSnapshot.

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
// plus the occasional stale sender after a redirect; degree is small, so
// the cap exists only to keep a confused peer from growing the map.
const DefaultLinkPeerCap = 64

// linkScore is the mutable per-peer accumulator behind a LinkReport.
type linkScore struct {
	frames, bytes                     uint64
	expected, received, dup, reorders uint64
	innovative, redundant             uint64
	rttEwma, jitterEwma               float64
	rttSamples                        uint64
	lastRecvNanos                     int64
}

type seqKey struct {
	peer   string
	thread int
}

type seqState struct {
	last uint32
}

// LinkTracker maintains one node's per-peer link scorecards. It is
// called from the data-frame receive path, so the steady state (known
// peer, known thread) must not allocate; all methods are no-ops on a nil
// receiver.
type LinkTracker struct {
	mu      sync.Mutex
	cap     int
	peers   map[string]*linkScore
	seqs    map[seqKey]*seqState
	dropped uint64
}

// NewLinkTracker creates a tracker bounded to capacity peers (0 or less
// = DefaultLinkPeerCap).
func NewLinkTracker(capacity int) *LinkTracker {
	if capacity <= 0 {
		capacity = DefaultLinkPeerCap
	}
	return &LinkTracker{
		cap:   capacity,
		peers: make(map[string]*linkScore),
		seqs:  make(map[seqKey]*seqState),
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
// the sender's per-thread sequence number seq.
func (t *LinkTracker) ObserveFrame(peer string, thread int, seq int32, frameBytes int, nowNanos int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s := t.score(peer)
	if s == nil {
		t.mu.Unlock()
		return
	}
	s.frames++
	s.bytes += uint64(frameBytes)
	s.lastRecvNanos = nowNanos
	k := seqKey{peer: peer, thread: thread}
	if st, ok := t.seqs[k]; !ok {
		t.seqs[k] = &seqState{last: uint32(seq)}
		s.expected++
		s.received++
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
	t.mu.Unlock()
}

// ObservePacket accounts one decoded coding-layer verdict for a packet
// that arrived from peer: innovative (rank-increasing) or redundant.
func (t *LinkTracker) ObservePacket(peer string, innovative bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if s := t.score(peer); s != nil {
		if innovative {
			s.innovative++
		} else {
			s.redundant++
		}
	}
	t.mu.Unlock()
}

// ObserveRTT folds one keepalive round-trip sample into the peer's
// EWMAs (RFC 6298 gains: 1/8 for the mean, 1/4 for the deviation).
func (t *LinkTracker) ObserveRTT(peer string, rttNanos int64) {
	if t == nil || rttNanos <= 0 {
		return
	}
	t.mu.Lock()
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
	t.mu.Unlock()
}

// Dropped reports how many per-peer observations were discarded because
// the peer table was full.
func (t *LinkTracker) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
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
	t.mu.Lock()
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
	t.mu.Unlock()
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
	Edges      *Gauge
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
		Edges: r.Gauge("ncast_link_edges",
			"Distinct (reporter, peer) link edges currently tracked"),
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

// DefaultLinkEdgeCap bounds the tracker-side link matrix: enough for a
// thousand-node fleet at small degree before FIFO eviction kicks in.
const DefaultLinkEdgeCap = 4096

type edgeKey struct {
	reporter uint64
	peer     string
}

// edgeState is the collector's view of one directed link: the latest
// scorecard plus the byte ledger needed to derive goodput from deltas.
type edgeState struct {
	reporterAddr string
	report       LinkReport
	at           time.Time
	prevBytes    uint64
	prevAt       time.Time
	goodput      float64 // bytes/sec between the last two reports
}

// LinkCollector assembles per-node scorecards into the fleet link
// matrix. One collector lives on the tracker; Ingest is called from the
// stats-report path and Snapshot/Summary from the observability
// endpoints, so it locks itself. All methods are no-ops on a nil
// receiver.
type LinkCollector struct {
	mu      sync.Mutex
	cap     int
	m       *LinkMetrics
	edges   map[edgeKey]*edgeState
	order   []edgeKey // insertion order, for eviction
	dropped uint64
}

// NewLinkCollector creates a collector retaining up to capacity link
// edges (0 or less = DefaultLinkEdgeCap), observing into m (which may
// be nil).
func NewLinkCollector(capacity int, m *LinkMetrics) *LinkCollector {
	if capacity <= 0 {
		capacity = DefaultLinkEdgeCap
	}
	return &LinkCollector{
		cap:   capacity,
		m:     m,
		edges: make(map[edgeKey]*edgeState),
	}
}

// Ingest merges one reporter's scorecards into the matrix and observes
// the fleet histograms.
func (c *LinkCollector) Ingest(reporter uint64, reporterAddr string, links []LinkReport) {
	if c == nil || len(links) == 0 {
		return
	}
	now := time.Now()
	c.mu.Lock()
	for _, r := range links {
		k := edgeKey{reporter: reporter, peer: r.Peer}
		e, ok := c.edges[k]
		if !ok {
			if len(c.order) >= c.cap {
				oldest := c.order[0]
				c.order = c.order[1:]
				delete(c.edges, oldest)
				c.dropped++
			}
			e = &edgeState{reporterAddr: reporterAddr}
			c.edges[k] = e
			c.order = append(c.order, k)
		}
		if dt := now.Sub(e.prevAt); !e.prevAt.IsZero() && dt > 0 && r.Bytes >= e.prevBytes {
			e.goodput = float64(r.Bytes-e.prevBytes) / dt.Seconds()
		}
		e.prevBytes, e.prevAt = r.Bytes, now
		e.reporterAddr = reporterAddr
		e.report = r
		e.at = now
		if c.m != nil {
			c.m.Loss.Observe(float64(r.LossPermille))
			if r.RTTSamples > 0 {
				c.m.RTT.Observe(float64(r.RTTEwmaNanos))
				c.m.Jitter.Observe(float64(r.JitterNanos))
			}
			if n := r.Innovative + r.Redundant; n > 0 {
				c.m.Innovation.Observe(float64(r.Innovative) / float64(n))
			}
			if e.goodput > 0 {
				c.m.Goodput.Observe(e.goodput)
			}
		}
	}
	if c.m != nil {
		c.m.Reports.Inc()
		c.m.Edges.Set(int64(len(c.edges)))
	}
	c.mu.Unlock()
}

// Remove drops every edge reported by the spliced-out node. Edges that
// name it as the peer stay until their reporters stop reporting them —
// they are the surviving evidence of the link's final quality.
func (c *LinkCollector) Remove(reporter uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	kept := c.order[:0]
	for _, k := range c.order {
		if k.reporter == reporter {
			delete(c.edges, k)
			continue
		}
		kept = append(kept, k)
	}
	c.order = kept
	if c.m != nil {
		c.m.Edges.Set(int64(len(c.edges)))
	}
	c.mu.Unlock()
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

// LinkSnapshot is the /debug/links document: every retained link edge
// plus the worst-links digest.
type LinkSnapshot struct {
	At               time.Time    `json:"at"`
	StaleAfterMillis int64        `json:"stale_after_ms"`
	Edges            []LinkEdge   `json:"edges,omitempty"`
	Dropped          uint64       `json:"dropped,omitempty"`
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

// Snapshot assembles the full link matrix. idOf maps node addresses to
// overlay ids so edges can name their peer's id (nil is fine). Output
// is deterministic: edges by reporter id then peer address.
func (c *LinkCollector) Snapshot(staleAfter time.Duration, idOf map[string]uint64) LinkSnapshot {
	snap := LinkSnapshot{At: time.Now(), StaleAfterMillis: staleAfter.Milliseconds()}
	if c == nil {
		return snap
	}
	c.mu.Lock()
	snap.Dropped = c.dropped
	snap.Edges = make([]LinkEdge, 0, len(c.edges))
	for k, e := range c.edges {
		age := snap.At.Sub(e.at)
		r := e.report
		edge := LinkEdge{
			Reporter:           k.reporter,
			ReporterAddr:       e.reporterAddr,
			Peer:               k.peer,
			PeerID:             idOf[k.peer],
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
			GoodputBytesPerSec: int64(e.goodput),
		}
		snap.Edges = append(snap.Edges, edge)
	}
	c.mu.Unlock()
	sort.Slice(snap.Edges, func(i, j int) bool {
		if snap.Edges[i].Reporter != snap.Edges[j].Reporter {
			return snap.Edges[i].Reporter < snap.Edges[j].Reporter
		}
		return snap.Edges[i].Peer < snap.Edges[j].Peer
	})
	snap.Worst = summarizeLinks(snap.Edges, idOf)
	return snap
}

// Summary returns the compact digest for ClusterSnapshot, or nil when no
// link has been reported yet.
func (c *LinkCollector) Summary(staleAfter time.Duration, idOf map[string]uint64) *LinkSummary {
	if c == nil {
		return nil
	}
	return c.Snapshot(staleAfter, idOf).Worst
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
