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

// flatSlots is a flat session's slot function: generations 0..gens-1.
func flatSlots(gens int) func(uint32) (int, bool) {
	return func(gen uint32) (int, bool) { return int(gen), gen < uint32(gens) }
}

func TestGenTrackerLifecycle(t *testing.T) {
	t.Parallel()
	var events []GenEvent
	gt := NewGenTracker("n1", 8, 16, flatSlots(16), nil, func(ev GenEvent) { events = append(events, ev) })

	emit := time.Now().Add(-10 * time.Millisecond).UnixNano()
	// 8 innovative packets plus 2 redundant ones (rank stalls at 5).
	ranks := []int{1, 2, 3, 4, 5, 5, 5, 6, 7, 8}
	for _, rk := range ranks {
		gt.Observe(7, emit, rk)
	}

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

	if got := gt.EmitStamp(7); got != emit {
		t.Fatalf("emit stamp = %d, want %d", got, emit)
	}
	if got := gt.EmitStamp(99); got != 0 {
		t.Fatalf("unknown gen stamp = %d", got)
	}
	if d := gt.Delays(); len(d) != 1 || d[0] != float64(done.DelayNanos) {
		t.Fatalf("delays = %v", d)
	}
	if ov := gt.Overheads(); len(ov) != 1 || ov[0] != 1250 {
		t.Fatalf("overheads = %v", ov)
	}

	// Further packets of a decoded generation must not re-emit phases.
	gt.Observe(7, emit, 8)
	if len(events) != len(wantPhases) {
		t.Fatalf("decoded generation re-emitted: %+v", events[len(wantPhases):])
	}
}

// TestGenTrackerEarliestStampWins pins the cross-hop delay semantics: when
// frames of one generation carry different stamps (paths of different
// length), the earliest — the true source emission — is kept.
func TestGenTrackerEarliestStampWins(t *testing.T) {
	t.Parallel()
	gt := NewGenTracker("n1", 4, 16, flatSlots(16), nil, nil)
	base := time.Now().UnixNano()
	gt.Observe(0, base, 1)       // stamped
	gt.Observe(0, 0, 2)          // unstamped frame must not clear it
	gt.Observe(0, base-5_000, 3) // an earlier stamp wins
	gt.Observe(0, base+9_000, 4) // a later one does not
	if got := gt.EmitStamp(0); got != base-5_000 {
		t.Fatalf("stamp = %d, want %d", got, base-5_000)
	}
}

// TestGenTrackerUnstampedDecode: a generation decoded purely from legacy
// unstamped frames reports overhead but no delay.
func TestGenTrackerUnstampedDecode(t *testing.T) {
	t.Parallel()
	gt := NewGenTracker("n1", 2, 16, flatSlots(16), nil, nil)
	gt.Observe(3, 0, 1)
	gt.Observe(3, 0, 2)
	if d := gt.Delays(); len(d) != 0 {
		t.Fatalf("delays from unstamped frames = %v", d)
	}
	if ov := gt.Overheads(); len(ov) != 1 || ov[0] != 1000 {
		t.Fatalf("overheads = %v", ov)
	}
}

// TestGenTrackerHistograms checks the NodeMetrics feed: decode fills the
// decode-delay and overhead histograms.
func TestGenTrackerHistograms(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	m := NewNodeMetrics(r, "n1")
	gt := NewGenTracker("n1", 2, 16, flatSlots(16), m, nil)
	emit := time.Now().Add(-time.Millisecond).UnixNano()
	gt.Observe(0, emit, 1)
	gt.Observe(0, emit, 2)
	snap := OverlaySnapshot{Metrics: r.Snapshot()}
	for _, name := range []string{"ncast_node_decode_delay_nanos", "ncast_node_coding_overhead_ratio"} {
		p := snap.Metric(name)
		if p == nil || p.Count != 1 {
			t.Fatalf("%s = %+v", name, p)
		}
	}
}

func TestGenTrackerNil(t *testing.T) {
	t.Parallel()
	var gt *GenTracker
	gt.Observe(0, 1, 1) // must not panic
	if gt.EmitStamp(0) != 0 || gt.Delays() != nil || gt.Overheads() != nil {
		t.Fatal("nil tracker not a no-op")
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

// TestGenTrackerMatchesReference drives the dense tracker with a seeded
// rank trace over interleaved generations — stalls, redundant packets,
// rank jumps that cross several quartiles, unstamped frames and packets
// after decode — and checks it emits exactly the reference model's
// events. Every event carries a clock stamp, a decoded event's delay is
// its own stamp minus the earliest emission, Delays reports the decoded
// events' delays, and Overheads every decoded generation's packets so
// far, those after its decode included.
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
	var got []GenEvent
	gt := NewGenTracker("n", need, gens, flatSlots(gens), nil, func(ev GenEvent) { got = append(got, ev) })
	for _, o := range trace {
		gt.Observe(o.gen, o.emit, o.rank)
	}
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
	var overheads []int
	for _, n := range received {
		overheads = append(overheads, n*1000/need)
	}
	gotDelays, gotOverheads := gt.Delays(), gt.Overheads()
	slices.Sort(delays)
	slices.Sort(gotDelays)
	slices.Sort(overheads)
	slices.Sort(gotOverheads)
	if !slices.Equal(gotDelays, delays) || !slices.Equal(gotOverheads, overheads) {
		t.Fatalf("Delays %v Overheads %v, decoded events say %v and %v", gotDelays, gotOverheads, delays, overheads)
	}
}
