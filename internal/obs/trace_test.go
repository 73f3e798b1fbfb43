package obs

import (
	"strings"
	"sync"
	"testing"
)

// hopTable drives HopCells as a node does, with one HopRef per generation.
type hopTable struct {
	HopCells
	refs map[uint32]*HopRef
}

func newHopTable(max int) *hopTable {
	return &hopTable{HopCells: HopCells{Max: max}, refs: map[uint32]*HopRef{}}
}

func (t *hopTable) record(traceID uint64, gen uint32, hop int, innovative bool, forwarded int, arrival, emit int64) {
	ref := t.refs[gen]
	if ref == nil {
		ref = &HopRef{}
		t.refs[gen] = ref
	}
	t.Record(ref, traceID, gen, hop, innovative, forwarded, arrival, emit)
}

// TestHopLogRecordAndDrop pins the hop cells' cap: once Max cells exist,
// an arrival for a new cell is dropped, while arrivals for the cells
// already kept go on counting; the first Max cells seen are the ones kept.
func TestHopLogRecordAndDrop(t *testing.T) {
	t.Parallel()
	c := newHopTable(2)
	for hop := 1; hop <= 5; hop++ {
		c.record(1, 0, hop, false, 0, int64(hop), 0)
	}
	c.record(1, 0, 2, true, 1, 9, 0) // a kept cell still counts
	c.record(1, 0, 3, true, 1, 9, 0) // a dropped one stays dropped
	c.record(1, 1, 1, true, 1, 9, 0) // so does another generation's
	got := c.Drain()
	if len(got) != 2 || got[0].Hop != 1 || got[1].Hop != 2 {
		t.Fatalf("cells = %+v, want hops 1 and 2 in arrival order", got)
	}
	if got[0].Received != 1 || got[1].Received != 2 || got[1].Innovative != 1 || got[1].LastArrivalNano != 9 {
		t.Fatalf("cells = %+v", got)
	}
}

// TestHopLogCompact pins how arrivals fold into (trace, generation, hop)
// cells: counts add up, the arrival envelope spans every arrival, the
// earliest known emission stamp wins, and a drain empties the cells.
func TestHopLogCompact(t *testing.T) {
	t.Parallel()
	c := newHopTable(16)
	// Three arrivals in the same (trace, gen, hop) cell, one in another,
	// and one each for another generation and another trace.
	c.record(9, 2, 1, true, 1, 100, 0)
	c.record(9, 2, 1, false, 2, 90, 50)
	c.record(9, 2, 2, true, 1, 200, 50)
	c.record(9, 2, 1, true, 0, 130, 60)
	c.record(9, 3, 1, true, 0, 140, 50)
	c.record(8, 2, 1, true, 0, 150, 50)
	hops := c.Drain()
	if len(hops) != 4 {
		t.Fatalf("folded into %d cells, want 4: %+v", len(hops), hops)
	}
	for i, want := range []struct {
		trace uint64
		gen   uint32
		hop   int
	}{{9, 2, 1}, {9, 2, 2}, {9, 3, 1}, {8, 2, 1}} {
		if h := hops[i]; h.TraceID != want.trace || h.Gen != want.gen || h.Hop != want.hop {
			t.Fatalf("cell %d = %+v, want %+v (first-arrival order)", i, h, want)
		}
	}
	h1 := hops[0]
	if h1.Received != 3 || h1.Innovative != 2 || h1.Forwarded != 3 {
		t.Fatalf("depth-1 cell = %+v", h1)
	}
	if h1.FirstArrivalNano != 90 || h1.LastArrivalNano != 130 || h1.EmitNanos != 50 {
		t.Fatalf("depth-1 envelope = %+v", h1)
	}
	if got := c.Drain(); len(got) != 0 {
		t.Fatalf("drain did not empty the cells: %+v", got)
	}
	// After a drain, generation 2's ref still names index 0 and more; the
	// cell now at index 0 is generation 3's, and must not absorb
	// generation 2's arrival.
	c.record(9, 3, 1, true, 0, 290, 70)
	c.record(9, 2, 1, true, 0, 300, 70)
	got := c.Drain()
	if len(got) != 2 || got[0].Gen != 3 || got[1].Gen != 2 ||
		got[1].Received != 1 || got[1].FirstArrivalNano != 300 || got[1].EmitNanos != 70 {
		t.Fatalf("cells after a drain = %+v, want one fresh cell per generation", got)
	}
}

func TestTraceCollectorAssembly(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	m := NewTraceMetrics(reg)
	c := NewTraceCollector(0, m)

	// Trace 7 on generation 3: node 1 at depth 1 forwards to node 2 at
	// depth 2; a second report from node 1 merges into the same entry.
	c.Ingest(1, []TraceHop{{TraceID: 7, Gen: 3, Hop: 1, Received: 4, Innovative: 4,
		Forwarded: 4, FirstArrivalNano: 110, LastArrivalNano: 150, EmitNanos: 100}})
	c.Ingest(2, []TraceHop{{TraceID: 7, Gen: 3, Hop: 2, Received: 4, Innovative: 3,
		Forwarded: 0, FirstArrivalNano: 130, LastArrivalNano: 180, EmitNanos: 100}})
	c.Ingest(1, []TraceHop{{TraceID: 7, Gen: 3, Hop: 1, Received: 2, Innovative: 1,
		Forwarded: 2, FirstArrivalNano: 105, LastArrivalNano: 160, EmitNanos: 100}})

	snap := c.Snapshot()
	if snap.SampledGenerations != 1 || snap.MaxHopDepth != 2 || len(snap.Generations) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	g := snap.Generations[0]
	if g.TraceID != 7 || g.Gen != 3 || g.EmitNanos != 100 || g.MaxHop != 2 {
		t.Fatalf("generation = %+v", g)
	}
	if g.Nodes != 2 || g.Received != 10 || g.Innovative != 8 {
		t.Fatalf("generation totals = %+v", g)
	}
	if g.WorstPathNanos != 80 { // node 2 last arrival 180 − emit 100
		t.Fatalf("worst path = %d, want 80", g.WorstPathNanos)
	}
	if len(g.Tree) != 2 || g.Tree[0].Depth != 1 || g.Tree[1].Depth != 2 {
		t.Fatalf("tree levels = %+v", g.Tree)
	}
	n1 := g.Tree[0].Nodes[0]
	if n1.ID != 1 || n1.Received != 6 || n1.Innovative != 5 || n1.Forwarded != 6 ||
		n1.FirstArrivalNanos != 105 || n1.LastArrivalNanos != 160 {
		t.Fatalf("merged node 1 = %+v", n1)
	}
	if len(snap.Depths) != 2 {
		t.Fatalf("depth rows = %+v", snap.Depths)
	}
	d2 := snap.Depths[1]
	if d2.Depth != 2 || d2.Nodes != 1 || d2.Received != 4 || d2.InnovationPermille != 750 {
		t.Fatalf("depth-2 row = %+v", d2)
	}
	if d2.MeanHopLatencyNanos != 15 { // (130 − 100) / 2
		t.Fatalf("depth-2 per-hop latency = %d, want 15", d2.MeanHopLatencyNanos)
	}

	sum := c.Summary()
	if sum == nil || sum.SampledGenerations != 1 || sum.MaxHopDepth != 2 ||
		sum.DeepestGen != 3 || sum.WorstPathGen != 3 || sum.WorstPathNanos != 80 {
		t.Fatalf("summary = %+v", sum)
	}

	// Fleet histograms observed one value per ingested cell.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ncast_trace_reports_total 3",
		"ncast_trace_hop_records_total 3",
		`ncast_trace_hop_depth_count 3`,
		`ncast_trace_innovation_ratio_count 3`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, sb.String())
		}
	}

	// Nil collector and empty summary are safe.
	var nilC *TraceCollector
	nilC.Ingest(1, []TraceHop{{TraceID: 1}})
	if nilC.Summary() != nil || nilC.Snapshot().SampledGenerations != 0 {
		t.Fatal("nil collector produced data")
	}
	if NewTraceCollector(0, nil).Summary() != nil {
		t.Fatal("empty collector returned a summary")
	}
}

func TestTraceCollectorEviction(t *testing.T) {
	t.Parallel()
	c := NewTraceCollector(2, nil)
	for id := uint64(1); id <= 3; id++ {
		c.Ingest(1, []TraceHop{{TraceID: id, Gen: uint32(id), Hop: 1, Received: 1}})
	}
	snap := c.Snapshot()
	if snap.SampledGenerations != 2 {
		t.Fatalf("retained %d generations, want 2", snap.SampledGenerations)
	}
	for _, g := range snap.Generations {
		if g.TraceID == 1 {
			t.Fatalf("oldest trace not evicted: %+v", snap.Generations)
		}
	}
}

func TestTraceCollectorConcurrent(t *testing.T) {
	t.Parallel()
	c := NewTraceCollector(8, NewTraceMetrics(NewRegistry()))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Ingest(uint64(w), []TraceHop{{TraceID: uint64(i%16 + 1), Gen: uint32(i % 16),
					Hop: w%3 + 1, Received: 1, Innovative: i % 2,
					FirstArrivalNano: int64(i + 10), LastArrivalNano: int64(i + 20), EmitNanos: 5}})
				if i%50 == 0 {
					c.Snapshot()
					c.Summary()
				}
			}
		}(w)
	}
	wg.Wait()
	if snap := c.Snapshot(); snap.SampledGenerations != 8 {
		t.Fatalf("retained %d generations, want cap 8", snap.SampledGenerations)
	}
}

// TestRuntimeMetricsSample pins the lazily-sampled runtime bundle: the
// gauges exist after registration and carry live values once a snapshot
// (which runs the collect hooks) is taken.
func TestRuntimeMetricsSample(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	if NewRuntimeMetrics(reg) == nil {
		t.Fatal("nil bundle from live registry")
	}
	points := map[string]float64{}
	for _, p := range reg.Snapshot() {
		points[p.Name] = p.Value
	}
	if points["ncast_runtime_goroutines"] <= 0 {
		t.Errorf("goroutines gauge = %v, want > 0", points["ncast_runtime_goroutines"])
	}
	if points["ncast_runtime_heap_bytes"] <= 0 {
		t.Errorf("heap gauge = %v, want > 0", points["ncast_runtime_heap_bytes"])
	}
	for _, name := range []string{"ncast_runtime_gc_pause_p99_nanos", "ncast_runtime_sched_latency_p99_nanos"} {
		if _, ok := points[name]; !ok {
			t.Errorf("missing gauge %s", name)
		}
	}
	// Prometheus exposition also runs the hooks without deadlocking.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ncast_runtime_goroutines") {
		t.Errorf("prometheus output missing runtime gauges:\n%s", sb.String())
	}
	// Nil registry returns a usable no-op bundle.
	m := NewRuntimeMetrics(nil)
	if m == nil {
		t.Fatal("nil registry returned nil bundle")
	}
	m.Goroutines.Set(1)
}

// TestRegistryOnCollect pins the lazy-collection contract: hooks run on
// every Snapshot and WritePrometheus, outside the registry lock, so a hook
// may itself set gauges.
func TestRegistryOnCollect(t *testing.T) {
	t.Parallel()
	reg := NewRegistry()
	g := reg.Gauge("collect_runs", "hook runs")
	runs := 0
	reg.OnCollect(func() {
		runs++
		g.Set(int64(runs))
	})
	reg.Snapshot()
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("hook ran %d times, want 2", runs)
	}
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
	// Nil registry accepts hooks as a no-op.
	var nilReg *Registry
	nilReg.OnCollect(func() { t.Fatal("hook on nil registry ran") })
	nilReg.Snapshot()
}
