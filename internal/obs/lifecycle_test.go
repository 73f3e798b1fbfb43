package obs

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// phaseOrder maps lifecycle phases to their mandatory ordering.
var phaseOrder = map[string]int{
	PhaseFirstPacket: 0,
	PhaseRank25:      1,
	PhaseRank50:      2,
	PhaseRank75:      3,
	PhaseDecoded:     4,
}

// lifeTable keeps one GenLife per generation of a flat session and
// drives them as a node does: each packet observed into its generation's
// record, the events collected in order, and the records summed into a
// LifeSummary as a stats report sums them.
type lifeTable struct {
	node   string
	need   int
	m      *NodeMetrics
	gens   []GenLife
	events []GenEvent
}

func newLifeTable(node string, need, gens int, m *NodeMetrics) *lifeTable {
	return &lifeTable{node: node, need: need, m: m, gens: make([]GenLife, gens)}
}

// observe records one absorbed packet of gen and returns its emit stamp.
func (t *lifeTable) observe(gen uint32, emit int64, rank int) int64 {
	g := &t.gens[gen]
	t.events = g.Observe(t.node, gen, t.need, emit, rank, 0, t.m, t.events)
	return g.EmitNanos()
}

// summary folds every generation's record into a LifeSummary.
func (t *lifeTable) summary() LifeSummary {
	var s LifeSummary
	for i := range t.gens {
		s.Add(&t.gens[i], t.need)
	}
	return s
}

func TestGenTrackerLifecycle(t *testing.T) {
	t.Parallel()
	lt := newLifeTable("n1", 8, 16, nil)

	emit := time.Now().Add(-10 * time.Millisecond).UnixNano()
	// 8 innovative packets plus 2 redundant ones (rank stalls at 5).
	ranks := []int{1, 2, 3, 4, 5, 5, 5, 6, 7, 8}
	for _, rk := range ranks {
		lt.observe(7, emit, rk)
	}

	events := lt.events
	wantPhases := []string{PhaseFirstPacket, PhaseRank25, PhaseRank50, PhaseRank75, PhaseDecoded}
	if len(events) != len(wantPhases) {
		t.Fatalf("events = %d, want %d: %+v", len(events), len(wantPhases), events)
	}
	for i, ev := range events {
		if ev.Phase != wantPhases[i] {
			t.Fatalf("event %d phase = %s, want %s", i, ev.Phase, wantPhases[i])
		}
		if i > 0 && phaseOrder[ev.Phase] <= phaseOrder[events[i-1].Phase] {
			t.Fatalf("phases not monotone: %s after %s", ev.Phase, events[i-1].Phase)
		}
		if ev.Node != "n1" || ev.Gen != 7 || ev.Need != 8 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	done := events[len(events)-1]
	if done.Received != 10 || done.OverheadPermille != 10*1000/8 {
		t.Fatalf("decoded event = %+v", done)
	}
	if done.DelayNanos < (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("delay = %v, want >= 10ms", time.Duration(done.DelayNanos))
	}

	if got := lt.gens[7].EmitNanos(); got != emit {
		t.Fatalf("emit stamp = %d, want %d", got, emit)
	}
	if got := lt.gens[6].EmitNanos(); got != 0 {
		t.Fatalf("unseen generation's stamp = %d", got)
	}
	// A generation short of full rank counts toward neither figure.
	lt.observe(5, emit, 1)
	if s := lt.summary(); len(s.Delays) != 1 || s.Delays[0] != float64(done.DelayNanos) ||
		s.Decoded != 1 || s.OverheadPermille() != 1250 {
		t.Fatalf("summary = %+v, overhead %d", s, s.OverheadPermille())
	}

	// Further packets of a decoded generation must not re-emit phases.
	seen := len(lt.events)
	lt.observe(7, emit, 8)
	if len(lt.events) != seen {
		t.Fatalf("decoded generation re-emitted: %+v", lt.events[seen:])
	}
}

// TestGenTrackerObserveClock pins Observe's clock contract. With the
// caller's reading, every event is stamped with it and the decode delay
// ends at it; with zero, Observe reads the clock itself.
func TestGenTrackerObserveClock(t *testing.T) {
	t.Parallel()
	const need = 4
	emit := time.Now().Add(-time.Hour).UnixNano()
	now := emit + (250 * time.Millisecond).Nanoseconds()
	var g GenLife
	var events []GenEvent
	for rank := 1; rank <= need; rank++ {
		events = g.Observe("n", 3, need, emit, rank, now, nil, events)
	}
	if len(events) != 5 {
		t.Fatalf("events = %+v, want all five phases", events)
	}
	for _, ev := range events {
		if ev.At.UnixNano() != now {
			t.Fatalf("%s at %v, want the given reading %v", ev.Phase, ev.At, time.Unix(0, now))
		}
	}
	if d := events[4].DelayNanos; d != now-emit {
		t.Fatalf("delay = %d ns, want the reading minus the stamp, %d ns", d, now-emit)
	}

	var z GenLife
	before := time.Now()
	events = z.Observe("n", 3, 1, emit, 1, 0, nil, nil)
	after := time.Now()
	if len(events) != 2 {
		t.Fatalf("events = %+v, want first packet and decoded", events)
	}
	for _, ev := range events {
		if ev.At.Before(before) || ev.At.After(after) {
			t.Fatalf("%s at %v, want the clock's reading in [%v, %v]", ev.Phase, ev.At, before, after)
		}
	}
	if d := events[1].DelayNanos; d < before.UnixNano()-emit || d > after.UnixNano()-emit {
		t.Fatalf("delay = %d ns, want the clock's reading minus the stamp", d)
	}
}

// TestGenTrackerEarliestStampWins pins the cross-hop delay semantics: when
// frames of one generation carry different stamps (paths of different
// length), the earliest — the true source emission — is kept.
func TestGenTrackerEarliestStampWins(t *testing.T) {
	t.Parallel()
	lt := newLifeTable("n1", 4, 16, nil)
	base := time.Now().UnixNano()
	lt.observe(0, base, 1)       // stamped
	lt.observe(0, 0, 2)          // unstamped frame must not clear it
	lt.observe(0, base-5_000, 3) // an earlier stamp wins
	if got := lt.observe(0, base+9_000, 4); got != base-5_000 {
		t.Fatalf("stamp = %d, want %d", got, base-5_000) // a later one does not
	}
}

// TestGenTrackerUnstampedDecode: a generation decoded purely from legacy
// unstamped frames reports overhead but no delay.
func TestGenTrackerUnstampedDecode(t *testing.T) {
	t.Parallel()
	lt := newLifeTable("n1", 2, 16, nil)
	lt.observe(3, 0, 1)
	lt.observe(3, 0, 2)
	if s := lt.summary(); len(s.Delays) != 0 || s.Decoded != 1 || s.OverheadPermille() != 1000 {
		t.Fatalf("summary = %+v, overhead %d", s, s.OverheadPermille())
	}
	if s := (LifeSummary{}); s.OverheadPermille() != 0 {
		t.Fatalf("empty summary overhead = %d", s.OverheadPermille())
	}
}

// TestGenTrackerHistograms checks the NodeMetrics feed: decode fills the
// decode-delay and overhead histograms.
func TestGenTrackerHistograms(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	m := NewNodeMetrics(r, "n1")
	lt := newLifeTable("n1", 2, 16, m)
	emit := time.Now().Add(-time.Millisecond).UnixNano()
	lt.observe(0, emit, 1)
	lt.observe(0, emit, 2)
	snap := OverlaySnapshot{Metrics: r.Snapshot()}
	for _, name := range []string{"ncast_node_decode_delay_nanos", "ncast_node_coding_overhead_ratio"} {
		p := snap.Metric(name)
		if p == nil || p.Count != 1 {
			t.Fatalf("%s = %+v", name, p)
		}
	}
}

func TestRegistryTraceCapacity(t *testing.T) {
	t.Parallel()
	r := NewRegistry(WithTraceCapacity(4))
	for i := 0; i < 10; i++ {
		r.Trace().Record(Event{Kind: "e", Node: uint64(i)})
	}
	evs := r.Trace().Events()
	if len(evs) != 4 || evs[0].Node != 6 || evs[3].Node != 9 {
		t.Fatalf("trace ring = %+v", evs)
	}
	// Values below 1 fall back to the default capacity.
	if def := NewRegistry(WithTraceCapacity(0)); def.Trace().Cap() != DefaultTraceCap {
		t.Fatalf("cap = %d, want %d", def.Trace().Cap(), DefaultTraceCap)
	}
}

// refGen is the reference model's state for one generation.
type refGen struct {
	emit                      int64
	received, rank, milestone int
	decoded                   bool
}

// refEvents replays observations through a straightforward map-keyed
// model of the lifecycle rules and returns the events it predicts, with
// At and DelayNanos left zero.
func refEvents(need int, obsv []observation) []GenEvent {
	gens := map[uint32]*refGen{}
	var out []GenEvent
	for _, o := range obsv {
		g, ok := gens[o.gen]
		if !ok {
			g = &refGen{}
			gens[o.gen] = g
		}
		g.received++
		if o.emit > 0 && (g.emit == 0 || o.emit < g.emit) {
			g.emit = o.emit
		}
		g.rank = max(g.rank, o.rank)
		ev := func(phase string) GenEvent {
			return GenEvent{Node: "n", Gen: o.gen, Phase: phase, Rank: g.rank, Need: need,
				Received: g.received, EmitNanos: g.emit}
		}
		if g.received == 1 {
			out = append(out, ev(PhaseFirstPacket))
		}
		for _, q := range []struct {
			pct   int
			phase string
		}{{25, PhaseRank25}, {50, PhaseRank50}, {75, PhaseRank75}} {
			if g.milestone < q.pct && g.rank*100 >= need*q.pct && g.rank < need {
				g.milestone = q.pct
				out = append(out, ev(q.phase))
			}
		}
		if g.rank >= need && !g.decoded {
			g.decoded = true
			done := ev(PhaseDecoded)
			done.OverheadPermille = g.received * 1000 / need
			out = append(out, done)
		}
	}
	return out
}

type observation struct {
	gen  uint32
	emit int64
	rank int
}

// TestGenTrackerMatchesReference drives a table of lifecycle records with
// a seeded rank trace over interleaved generations — stalls, redundant
// packets, rank jumps that cross several quartiles, unstamped frames and
// packets after decode — and checks they emit exactly the reference
// model's events. Every event carries a clock stamp, a decoded event's
// delay is its own stamp minus the earliest emission, and the records'
// LifeSummary reports the decoded events' delays and the mean overhead of
// the decoded generations, each counting its packets so far, those after
// its decode included.
func TestGenTrackerMatchesReference(t *testing.T) {
	t.Parallel()
	const need, gens = 8, 6
	r := rand.New(rand.NewSource(3))
	base := time.Now().Add(-time.Second).UnixNano()
	ranks := make([]int, gens)
	var trace []observation
	for len(trace) < 400 {
		g := r.Intn(gens)
		ranks[g] = min(need, ranks[g]+r.Intn(3)) // 0: redundant, 2: a jump
		emit := int64(0)
		if r.Intn(4) > 0 {
			emit = base + r.Int63n(int64(time.Millisecond))
		}
		trace = append(trace, observation{gen: uint32(g), emit: emit, rank: ranks[g]})
	}
	lt := newLifeTable("n", need, gens, nil)
	for _, o := range trace {
		lt.observe(o.gen, o.emit, o.rank)
	}
	got := lt.events
	want := refEvents(need, trace)
	if len(got) != len(want) {
		t.Fatalf("%d events, reference %d", len(got), len(want))
	}
	var delays []float64
	decoded := 0
	for i, ev := range got {
		if ev.At.IsZero() {
			t.Fatalf("event %d has no time: %+v", i, ev)
		}
		delay := ev.DelayNanos
		ev.At, ev.DelayNanos = time.Time{}, 0
		if ev != want[i] {
			t.Fatalf("event %d = %+v, reference %+v", i, ev, want[i])
		}
		if ev.Phase != PhaseDecoded {
			if delay != 0 {
				t.Fatalf("event %d (%s) has delay %d", i, ev.Phase, delay)
			}
			continue
		}
		if wantDelay := got[i].At.UnixNano() - ev.EmitNanos; ev.EmitNanos > 0 && delay != wantDelay || ev.EmitNanos == 0 && delay != 0 {
			t.Fatalf("decoded event %d delay %d, want its stamp minus emission (emit %d)", i, delay, ev.EmitNanos)
		}
		if delay > 0 {
			delays = append(delays, float64(delay))
		}
		decoded++
	}
	if decoded != gens {
		t.Fatalf("%d generations decoded, want all %d", decoded, gens)
	}
	received := make([]int, gens)
	for _, o := range trace {
		received[o.gen]++
	}
	overheads := 0
	for _, n := range received {
		overheads += n * 1000 / need
	}
	s := lt.summary()
	slices.Sort(delays)
	slices.Sort(s.Delays)
	if !slices.Equal(s.Delays, delays) || s.Decoded != gens || s.OverheadPermille() != overheads/gens {
		t.Fatalf("summary %+v overhead %d, decoded events say delays %v, overhead %d",
			s, s.OverheadPermille(), delays, overheads/gens)
	}
}
