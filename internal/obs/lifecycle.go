package obs

import "time"

// Generation lifecycle phases, in the order a healthy generation passes
// through them. The decode-delay literature (generation size / overlap
// tuning) reasons about exactly these transitions: when the first coded
// packet of a generation lands, how rank accumulates, and when the
// generation decodes relative to the source's emission.
const (
	PhaseFirstPacket = "first_packet"
	PhaseRank25      = "rank25"
	PhaseRank50      = "rank50"
	PhaseRank75      = "rank75"
	PhaseDecoded     = "decoded"
)

// GenEvent is one generation-lifecycle transition at one node. It is the
// record ncast-sim's -timeline flag writes as JSONL, and what GenSink
// observers receive live.
type GenEvent struct {
	At    time.Time `json:"at"`
	Node  string    `json:"node"`
	Gen   uint32    `json:"gen"`
	Phase string    `json:"phase"`
	// Rank and Need are the post-transition decoded rank and the full
	// generation size.
	Rank int `json:"rank"`
	Need int `json:"need"`
	// Received counts coded packets of this generation seen so far,
	// including redundant ones; Received/Need at decode time is the coding
	// overhead ratio.
	Received int `json:"received"`
	// EmitNanos is the source's first-emission stamp for the generation
	// (unix nanoseconds; 0 when no stamped frame has arrived yet).
	EmitNanos int64 `json:"emit_nanos,omitempty"`
	// DelayNanos is the end-to-end decode delay (decode time minus source
	// emission), set only on the decoded transition when EmitNanos is known.
	DelayNanos int64 `json:"delay_nanos,omitempty"`
	// OverheadPermille is 1000 × Received/Need, set on decoded.
	OverheadPermille int `json:"overhead_permille,omitempty"`
}

// GenSink consumes lifecycle transitions; it must be safe for concurrent
// calls (decode workers of distinct generations fire independently). A
// node calls it after releasing its own lock.
type GenSink func(GenEvent)

// GenLife is one generation's lifecycle record at one node: the packets
// received, the rank reached, the earliest source emission stamp, the
// highest milestone crossed and, once decoded, the end-to-end decode
// delay. The node keeps one in each generation's slot and guards it with
// its own lock; a GenLife has none.
type GenLife struct {
	emitNanos int64
	received  int
	rank      int
	milestone int // highest quartile emitted: 0, 25, 50 or 75; 100 once decoded
	delay     time.Duration
}

// Decoded reports whether the generation reached full rank.
func (g *GenLife) Decoded() bool { return g.milestone == 100 }

// EmitNanos returns the earliest source emission stamp seen (unix
// nanoseconds; 0 when unknown), so a forwarding node can propagate the
// stamp downstream and keep end-to-end delay measurable across hops.
func (g *GenLife) EmitNanos() int64 { return g.emitNanos }

// overheadPermille returns 1000 × received/need, the coding-overhead
// ratio in permille, counting every packet received so far.
func (g *GenLife) overheadPermille(need int) int { return g.received * 1000 / need }

// Observe records one absorbed packet of generation gen, which needs
// `need` innovative packets, at node: the post-absorption rank and the
// source emit stamp the frame carried (0 when unstamped). It appends
// every lifecycle transition the packet crossed to events, in order, so
// sinks always see monotone phase sequences, and on decode feeds m's
// decode-delay and overhead histograms (m may be nil). nowNanos is the
// caller's clock reading in unix nanoseconds, the time of every event
// and the end of the decode delay; zero makes a packet that crosses a
// transition read the clock itself.
func (g *GenLife) Observe(node string, gen uint32, need int, emitNanos int64, rank int, nowNanos int64, m *NodeMetrics, events []GenEvent) []GenEvent {
	g.received++
	if emitNanos > 0 && (g.emitNanos == 0 || emitNanos < g.emitNanos) {
		g.emitNanos = emitNanos
	}
	if rank > g.rank {
		g.rank = rank
	}
	// Milestones are 25 apart, so the next transition, if any, is the
	// first packet or the next quartile (decoded after rank75).
	if g.received > 1 && (g.Decoded() || g.rank*100 < need*(g.milestone+25)) {
		return events
	}
	now := time.Unix(0, nowNanos)
	if nowNanos == 0 {
		now = time.Now()
	}
	ev := func(phase string) GenEvent {
		return GenEvent{
			At: now, Node: node, Gen: gen, Phase: phase,
			Rank: g.rank, Need: need, Received: g.received, EmitNanos: g.emitNanos,
		}
	}
	if g.received == 1 {
		events = append(events, ev(PhaseFirstPacket))
	}
	for _, q := range [...]struct {
		pct   int
		phase string
	}{{25, PhaseRank25}, {50, PhaseRank50}, {75, PhaseRank75}} {
		if g.milestone < q.pct && g.rank*100 >= need*q.pct && g.rank < need {
			g.milestone = q.pct
			events = append(events, ev(q.phase))
		}
	}
	if g.rank >= need && !g.Decoded() {
		g.milestone = 100
		if g.emitNanos > 0 {
			g.delay = max(now.Sub(time.Unix(0, g.emitNanos)), 0)
		}
		done := ev(PhaseDecoded)
		done.DelayNanos = int64(g.delay)
		done.OverheadPermille = g.overheadPermille(need)
		events = append(events, done)
		if m != nil {
			if g.delay > 0 {
				m.DecodeDelay.Observe(float64(g.delay))
			}
			m.Overhead.Observe(float64(g.received) / float64(need))
		}
	}
	return events
}

// LifeSummary folds a node's lifecycle records into the figures its
// stats report carries: the end-to-end delays of the generations decoded
// with a known emission stamp, and the mean coding overhead of every
// decoded generation. Undecoded generations count toward neither.
type LifeSummary struct {
	// Delays holds one decode delay in nanoseconds per decoded, stamped
	// generation, in the order added.
	Delays []float64
	// Decoded counts the decoded generations added.
	Decoded   int
	overheads int // summed permille
}

// Add folds in generation g, which needs `need` innovative packets.
func (s *LifeSummary) Add(g *GenLife, need int) {
	if !g.Decoded() {
		return
	}
	if g.delay > 0 {
		s.Delays = append(s.Delays, float64(g.delay))
	}
	s.Decoded++
	s.overheads += g.overheadPermille(need)
}

// OverheadPermille returns the mean overhead of the decoded generations in
// permille, 0 when none has decoded.
func (s *LifeSummary) OverheadPermille() int {
	if s.Decoded == 0 {
		return 0
	}
	return s.overheads / s.Decoded
}
