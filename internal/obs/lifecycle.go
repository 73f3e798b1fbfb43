package obs

import (
	"sync"
	"time"
)

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
// calls (decode workers of distinct generations fire independently).
type GenSink func(GenEvent)

// genState is the per-generation lifecycle record of one tracker.
type genState struct {
	emitNanos int64
	received  int
	rank      int
	milestone int // highest quartile emitted: 0, 25, 50 or 75; 100 once decoded
	delay     time.Duration
}

func (g *genState) decoded() bool { return g.milestone == 100 }

// GenTracker records generation lifecycle spans for one node: first packet
// seen, rank-progress quartiles, decode completion, packets received
// versus needed, and the true end-to-end decode delay against the source's
// emission stamp. It feeds the decode-delay and coding-overhead
// histograms of a NodeMetrics bundle and an optional event sink. A nil
// tracker is a no-op, matching the rest of the obs layer.
//
// Per-generation state is a dense table indexed by the session's slot
// function, so a packet costs no map lookup, and the clock is read only
// when a packet crosses a lifecycle transition.
type GenTracker struct {
	node string
	need int
	slot func(gen uint32) (int, bool)
	m    *NodeMetrics
	sink GenSink

	mu   sync.Mutex
	gens []genState
}

// NewGenTracker creates a lifecycle tracker for a node whose generations
// need `need` innovative packets each. slot maps each of the session's
// generation ids onto [0, gens) and rejects every other id, which the
// tracker then ignores. m and sink may be nil.
func NewGenTracker(node string, need, gens int, slot func(gen uint32) (int, bool), m *NodeMetrics, sink GenSink) *GenTracker {
	if need <= 0 {
		need = 1
	}
	return &GenTracker{node: node, need: need, slot: slot, m: m, sink: sink, gens: make([]genState, gens)}
}

// Observe records one absorbed packet of generation gen: the post-
// absorption rank and the source emit stamp carried by the frame (0 when
// the frame was unstamped). It emits every lifecycle transition the packet
// crossed, in order, so sinks always see monotone phase sequences, and
// returns the generation's emit stamp as EmitStamp would.
func (t *GenTracker) Observe(gen uint32, emitNanos int64, rank int) int64 {
	if t == nil {
		return 0
	}
	i, ok := t.slot(gen)
	if !ok {
		return 0
	}
	t.mu.Lock()
	g := &t.gens[i]
	g.received++
	if emitNanos > 0 && (g.emitNanos == 0 || emitNanos < g.emitNanos) {
		g.emitNanos = emitNanos
	}
	if rank > g.rank {
		g.rank = rank
	}
	stamp := g.emitNanos
	// Milestones are 25 apart, so the next transition, if any, is the
	// first packet or the next quartile (decoded after rank75).
	if g.received > 1 && (g.decoded() || g.rank*100 < t.need*(g.milestone+25)) {
		t.mu.Unlock()
		return stamp
	}
	// One packet crosses at most all five transitions, so their events
	// fit on the stack.
	var buf [5]GenEvent
	events := t.transitionsLocked(gen, g, buf[:0])
	t.mu.Unlock()
	if t.sink != nil {
		for _, e := range events {
			t.sink(e)
		}
	}
	return stamp
}

// transitionsLocked records the transitions g has just crossed, stamped
// with one clock read, and appends their events to events. Callers hold
// t.mu.
func (t *GenTracker) transitionsLocked(gen uint32, g *genState, events []GenEvent) []GenEvent {
	now := time.Now()
	ev := func(phase string) GenEvent {
		return GenEvent{
			At: now, Node: t.node, Gen: gen, Phase: phase,
			Rank: g.rank, Need: t.need, Received: g.received, EmitNanos: g.emitNanos,
		}
	}
	if g.received == 1 {
		events = append(events, ev(PhaseFirstPacket))
	}
	for _, q := range [...]struct {
		pct   int
		phase string
	}{{25, PhaseRank25}, {50, PhaseRank50}, {75, PhaseRank75}} {
		if g.milestone < q.pct && g.rank*100 >= t.need*q.pct && g.rank < t.need {
			g.milestone = q.pct
			events = append(events, ev(q.phase))
		}
	}
	if g.rank >= t.need && !g.decoded() {
		g.milestone = 100
		if g.emitNanos > 0 {
			g.delay = max(now.Sub(time.Unix(0, g.emitNanos)), 0)
		}
		done := ev(PhaseDecoded)
		done.DelayNanos = int64(g.delay)
		done.OverheadPermille = g.received * 1000 / t.need
		events = append(events, done)
		if t.m != nil {
			if g.delay > 0 {
				t.m.DecodeDelay.Observe(float64(g.delay))
			}
			t.m.Overhead.Observe(float64(g.received) / float64(t.need))
		}
	}
	return events
}

// EmitStamp returns the earliest source emission stamp seen for gen (unix
// nanoseconds; 0 when unknown), so a forwarding node can propagate the
// stamp downstream and keep end-to-end delay measurable across hops.
func (t *GenTracker) EmitStamp(gen uint32) int64 {
	if t == nil {
		return 0
	}
	i, ok := t.slot(gen)
	if !ok {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gens[i].emitNanos
}

// Delays returns the end-to-end decode delays of every generation decoded
// so far with a known emission stamp, in nanoseconds. The slice is freshly
// allocated; order is unspecified.
func (t *GenTracker) Delays() []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.gens {
		if g := &t.gens[i]; g.decoded() && g.delay > 0 {
			out = append(out, float64(g.delay))
		}
	}
	return out
}

// Overheads returns, for every decoded generation, 1000 × received/needed
// (the coding-overhead ratio in permille).
func (t *GenTracker) Overheads() []int {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for i := range t.gens {
		if g := &t.gens[i]; g.decoded() {
			out = append(out, g.received*1000/t.need)
		}
	}
	return out
}
