package obs

import (
	"sort"
	"sync"
	"time"
)

// Dissemination tracing: the source stamps sampled generations with a
// 64-bit trace ID and hop counter; every node that receives a traced
// frame folds it into a TraceHop cell (HopCells) and drains its cells
// into each stats report, and the tracker's TraceCollector assembles them
// into per-generation dissemination trees and fleet-wide hop histograms
// served at /debug/trace.

// TraceHop is the wire-shipped form of a node's traced arrivals for one
// (trace, generation, hop-depth) cell: how many traced frames arrived
// at that depth, how many were innovative, how many recoded descendants
// were forwarded, and the arrival-time envelope. It rides inside
// StatsReport, so field names are wire/API surface.
type TraceHop struct {
	TraceID          uint64 `json:"trace_id"`
	Gen              uint32 `json:"gen"`
	Hop              int    `json:"hop"`
	Received         int    `json:"received"`
	Innovative       int    `json:"innovative"`
	Forwarded        int    `json:"forwarded"`
	FirstArrivalNano int64  `json:"first_arrival_ns"`
	LastArrivalNano  int64  `json:"last_arrival_ns"`
	EmitNanos        int64  `json:"emit_ns,omitempty"`
}

// HopCells is one node's traced arrivals since its last stats report,
// kept as TraceHop cells in the order their first arrival came. Record
// folds an arrival into its cell; once Max cells exist, an arrival for a
// new cell is dropped, so the first Max cells seen are the ones reported
// and a traced burst cannot grow node memory or bloat the report.
// HopCells has no lock: the node records and drains under its own.
type HopCells struct {
	// Max bounds the cells kept between drains.
	Max   int
	cells []TraceHop
	// prev chains each generation's cells: prev[i] is 1 + the index of the
	// cell of cells[i]'s generation recorded before it, 0 for its first.
	prev  []int32
	epoch uint64 // drains so far
}

// HopRef is one generation's entry into HopCells: its newest cell since
// the last drain. The node keeps one per generation, so finding an
// arrival's cell walks only that generation's cells (one per trace and
// hop depth it arrived at), however many cells other generations hold.
type HopRef struct {
	epoch uint64 // the HopCells drain count last is valid for
	last  int32  // 1 + index of the generation's newest cell; 0 for none
}

// Record folds one traced arrival of generation gen, whose HopRef is ref,
// into its (trace, generation, hop) cell: whether the packet was
// innovative, how many recoded descendants the node forwarded, its
// arrival time and the frame's source emission stamp (0 when unstamped).
func (c *HopCells) Record(ref *HopRef, traceID uint64, gen uint32, hop int, innovative bool, forwarded int, arrivalNanos, emitNanos int64) {
	if ref.epoch != c.epoch {
		*ref = HopRef{epoch: c.epoch}
	}
	var h *TraceHop
	for i := ref.last; i > 0; i = c.prev[i-1] {
		if x := &c.cells[i-1]; x.TraceID == traceID && x.Gen == gen && x.Hop == hop {
			h = x
			break
		}
	}
	if h == nil {
		if len(c.cells) >= c.Max {
			return
		}
		c.cells = append(c.cells, TraceHop{TraceID: traceID, Gen: gen, Hop: hop,
			FirstArrivalNano: arrivalNanos, LastArrivalNano: arrivalNanos})
		c.prev = append(c.prev, ref.last)
		ref.last = int32(len(c.cells))
		h = &c.cells[len(c.cells)-1]
	}
	h.Received++
	if innovative {
		h.Innovative++
	}
	h.Forwarded += forwarded
	h.FirstArrivalNano = min(h.FirstArrivalNano, arrivalNanos)
	h.LastArrivalNano = max(h.LastArrivalNano, arrivalNanos)
	if h.EmitNanos == 0 || (emitNanos > 0 && emitNanos < h.EmitNanos) {
		h.EmitNanos = emitNanos
	}
}

// Drain returns the cells recorded since the last drain and empties c,
// which invalidates every HopRef; the caller owns the returned slice.
func (c *HopCells) Drain() []TraceHop {
	out := c.cells
	c.cells = nil
	c.prev = c.prev[:0]
	c.epoch++
	return out
}

// TraceMetrics is the Prometheus-facing trace family: fleet-wide
// hop-depth, per-hop-latency, and innovation-ratio histograms fed by the
// tracker as hop reports arrive. Nil-safe like every bundle.
type TraceMetrics struct {
	Reports    *Counter
	HopRecords *Counter
	HopDepth   *Histogram
	HopLatency *Histogram
	Innovation *Histogram
}

// NewTraceMetrics registers the trace family (nil registry → nil-safe
// no-op bundle).
func NewTraceMetrics(r *Registry) *TraceMetrics {
	return &TraceMetrics{
		Reports: r.Counter("ncast_trace_reports_total",
			"Stats reports carrying compacted hop spans"),
		HopRecords: r.Counter("ncast_trace_hop_records_total",
			"Compacted (trace, generation, hop) cells ingested"),
		HopDepth: r.Histogram("ncast_trace_hop_depth",
			"Hop depth of traced coded-frame arrivals", HopDepthBuckets()),
		HopLatency: r.Histogram("ncast_trace_hop_latency_nanos",
			"Approximate per-hop latency of traced frames (first arrival minus source stamp, divided by depth)",
			LatencyBuckets()),
		Innovation: r.Histogram("ncast_trace_innovation_ratio",
			"Innovative fraction of traced arrivals per reported hop cell", RatioBuckets()),
	}
}

// HopDepthBuckets covers dissemination depths from direct children of the
// source (depth 1) through deep chains in tall overlays.
func HopDepthBuckets() []float64 {
	return []float64{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32}
}

// RatioBuckets covers fractions in [0,1] at 0.1 granularity.
func RatioBuckets() []float64 {
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
}

// DefaultTraceGenCap bounds how many sampled generations a TraceCollector
// retains before evicting the oldest — enough for a long replay window
// without unbounded growth under 1/1 sampling.
const DefaultTraceGenCap = 256

// traceEntry is one node's aggregate at one hop depth of one trace.
type traceEntry struct {
	received   int
	innovative int
	forwarded  int
	first      int64
	last       int64
}

type traceKey struct {
	node uint64
	hop  int
}

// traceGen is the assembled dissemination state of one sampled
// generation.
type traceGen struct {
	gen     uint32
	emit    int64
	maxHop  int
	entries map[traceKey]*traceEntry
}

// TraceCollector assembles hop reports from the fleet into per-generation
// dissemination trees and feeds the fleet-wide histograms. One collector
// lives on the tracker; Ingest is called from the stats-report path and
// Snapshot/Summary from the observability endpoints, so it locks itself.
// All methods are no-ops on a nil receiver.
type TraceCollector struct {
	mu    sync.Mutex
	cap   int
	m     *TraceMetrics
	gens  map[uint64]*traceGen // trace ID -> assembled state
	order []uint64             // insertion order, for eviction
}

// NewTraceCollector creates a collector retaining up to capacity sampled
// generations (0 or less = DefaultTraceGenCap), observing into m (which
// may be nil).
func NewTraceCollector(capacity int, m *TraceMetrics) *TraceCollector {
	if capacity <= 0 {
		capacity = DefaultTraceGenCap
	}
	return &TraceCollector{
		cap:  capacity,
		m:    m,
		gens: make(map[uint64]*traceGen),
	}
}

// Ingest merges one node's compacted hop cells into the assembled state
// and observes the fleet histograms.
func (c *TraceCollector) Ingest(node uint64, hops []TraceHop) {
	if c == nil || len(hops) == 0 {
		return
	}
	c.mu.Lock()
	for _, h := range hops {
		g, ok := c.gens[h.TraceID]
		if !ok {
			if len(c.order) >= c.cap {
				oldest := c.order[0]
				c.order = c.order[1:]
				delete(c.gens, oldest)
			}
			g = &traceGen{gen: h.Gen, entries: make(map[traceKey]*traceEntry)}
			c.gens[h.TraceID] = g
			c.order = append(c.order, h.TraceID)
		}
		if h.EmitNanos > 0 && (g.emit == 0 || h.EmitNanos < g.emit) {
			g.emit = h.EmitNanos
		}
		if h.Hop > g.maxHop {
			g.maxHop = h.Hop
		}
		k := traceKey{node: node, hop: h.Hop}
		e, ok := g.entries[k]
		if !ok {
			e = &traceEntry{first: h.FirstArrivalNano, last: h.LastArrivalNano}
			g.entries[k] = e
		}
		e.received += h.Received
		e.innovative += h.Innovative
		e.forwarded += h.Forwarded
		if h.FirstArrivalNano < e.first {
			e.first = h.FirstArrivalNano
		}
		if h.LastArrivalNano > e.last {
			e.last = h.LastArrivalNano
		}
		if c.m != nil {
			c.m.HopRecords.Inc()
			c.m.HopDepth.Observe(float64(h.Hop))
			if h.EmitNanos > 0 && h.Hop > 0 && h.FirstArrivalNano > h.EmitNanos {
				c.m.HopLatency.Observe(float64(h.FirstArrivalNano-h.EmitNanos) / float64(h.Hop))
			}
			if h.Received > 0 {
				c.m.Innovation.Observe(float64(h.Innovative) / float64(h.Received))
			}
		}
	}
	if c.m != nil {
		c.m.Reports.Inc()
	}
	c.mu.Unlock()
}

// TraceNode is one node's aggregate at one level of a dissemination tree.
type TraceNode struct {
	ID                uint64 `json:"id"`
	Received          int    `json:"received"`
	Innovative        int    `json:"innovative"`
	Forwarded         int    `json:"forwarded"`
	FirstArrivalNanos int64  `json:"first_arrival_ns"`
	LastArrivalNanos  int64  `json:"last_arrival_ns"`
}

// TraceLevel is one depth stratum of a dissemination tree.
type TraceLevel struct {
	Depth int         `json:"depth"`
	Nodes []TraceNode `json:"nodes"`
}

// TraceGeneration is one sampled generation's assembled dissemination
// tree: which nodes saw traced frames at which depth, and the worst
// end-to-end path observed (last arrival minus source stamp).
type TraceGeneration struct {
	TraceID        uint64       `json:"trace_id"`
	Gen            uint32       `json:"gen"`
	EmitNanos      int64        `json:"emit_ns,omitempty"`
	MaxHop         int          `json:"max_hop"`
	Nodes          int          `json:"nodes"`
	Received       int          `json:"received"`
	Innovative     int          `json:"innovative"`
	WorstPathNanos int64        `json:"worst_path_ns,omitempty"`
	Tree           []TraceLevel `json:"tree"`
}

// TraceDepth is one row of the fleet hop-depth distribution: aggregate
// arrival and innovation counts at one depth across every sampled
// generation. MeanHopLatencyNanos approximates the per-hop delay as
// (first arrival − source stamp) / depth, averaged over cells.
type TraceDepth struct {
	Depth               int   `json:"depth"`
	Nodes               int   `json:"nodes"`
	Received            int   `json:"received"`
	Innovative          int   `json:"innovative"`
	Forwarded           int   `json:"forwarded"`
	InnovationPermille  int   `json:"innovation_permille"`
	MeanHopLatencyNanos int64 `json:"mean_hop_latency_ns,omitempty"`
}

// TraceSnapshot is the /debug/trace document: the hop-depth distribution
// plus every retained generation's assembled tree.
type TraceSnapshot struct {
	At                 time.Time         `json:"at"`
	SampledGenerations int               `json:"sampled_generations"`
	MaxHopDepth        int               `json:"max_hop_depth"`
	Depths             []TraceDepth      `json:"depths,omitempty"`
	Generations        []TraceGeneration `json:"generations,omitempty"`
}

// TraceSummary is the compact trace digest embedded in ClusterSnapshot:
// how deep and how slow dissemination got across sampled generations.
type TraceSummary struct {
	SampledGenerations int    `json:"sampled_generations"`
	MaxHopDepth        int    `json:"max_hop_depth"`
	DeepestGen         uint32 `json:"deepest_gen"`
	WorstPathGen       uint32 `json:"worst_path_gen"`
	WorstPathNanos     int64  `json:"worst_path_ns,omitempty"`
}

// Snapshot assembles the full trace document. Output is deterministic:
// generations by generation id, levels by depth, nodes by id.
func (c *TraceCollector) Snapshot() TraceSnapshot {
	snap := TraceSnapshot{At: time.Now()}
	if c == nil {
		return snap
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	snap.SampledGenerations = len(c.gens)
	type depthAgg struct {
		nodes, received, innovative, forwarded int
		latSum                                 int64
		latN                                   int64
	}
	depths := map[int]*depthAgg{}
	for id, g := range c.gens {
		tg := TraceGeneration{TraceID: id, Gen: g.gen, EmitNanos: g.emit, MaxHop: g.maxHop}
		byDepth := map[int][]TraceNode{}
		for k, e := range g.entries {
			byDepth[k.hop] = append(byDepth[k.hop], TraceNode{
				ID:                k.node,
				Received:          e.received,
				Innovative:        e.innovative,
				Forwarded:         e.forwarded,
				FirstArrivalNanos: e.first,
				LastArrivalNanos:  e.last,
			})
			tg.Nodes++
			tg.Received += e.received
			tg.Innovative += e.innovative
			if g.emit > 0 && e.last > g.emit && e.last-g.emit > tg.WorstPathNanos {
				tg.WorstPathNanos = e.last - g.emit
			}
			da := depths[k.hop]
			if da == nil {
				da = &depthAgg{}
				depths[k.hop] = da
			}
			da.nodes++
			da.received += e.received
			da.innovative += e.innovative
			da.forwarded += e.forwarded
			if g.emit > 0 && k.hop > 0 && e.first > g.emit {
				da.latSum += (e.first - g.emit) / int64(k.hop)
				da.latN++
			}
		}
		levels := make([]int, 0, len(byDepth))
		for d := range byDepth {
			levels = append(levels, d)
		}
		sort.Ints(levels)
		for _, d := range levels {
			nodes := byDepth[d]
			sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
			tg.Tree = append(tg.Tree, TraceLevel{Depth: d, Nodes: nodes})
		}
		if g.maxHop > snap.MaxHopDepth {
			snap.MaxHopDepth = g.maxHop
		}
		snap.Generations = append(snap.Generations, tg)
	}
	sort.Slice(snap.Generations, func(i, j int) bool {
		gi, gj := snap.Generations[i], snap.Generations[j]
		if gi.Gen != gj.Gen {
			return gi.Gen < gj.Gen
		}
		return gi.TraceID < gj.TraceID
	})
	ds := make([]int, 0, len(depths))
	for d := range depths {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	for _, d := range ds {
		da := depths[d]
		row := TraceDepth{
			Depth:      d,
			Nodes:      da.nodes,
			Received:   da.received,
			Innovative: da.innovative,
			Forwarded:  da.forwarded,
		}
		if da.received > 0 {
			row.InnovationPermille = da.innovative * 1000 / da.received
		}
		if da.latN > 0 {
			row.MeanHopLatencyNanos = da.latSum / da.latN
		}
		snap.Depths = append(snap.Depths, row)
	}
	return snap
}

// Summary returns the compact digest for ClusterSnapshot, or nil when
// nothing has been sampled yet.
func (c *TraceCollector) Summary() *TraceSummary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.gens) == 0 {
		return nil
	}
	s := &TraceSummary{SampledGenerations: len(c.gens)}
	for _, g := range c.gens {
		if g.maxHop > s.MaxHopDepth {
			s.MaxHopDepth = g.maxHop
			s.DeepestGen = g.gen
		}
		if g.emit == 0 {
			continue
		}
		for _, e := range g.entries {
			if e.last > g.emit && e.last-g.emit > s.WorstPathNanos {
				s.WorstPathNanos = e.last - g.emit
				s.WorstPathGen = g.gen
			}
		}
	}
	return s
}
