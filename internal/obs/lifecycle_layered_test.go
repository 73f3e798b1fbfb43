package obs_test

import (
	"testing"

	"ncast/internal/obs"
	"ncast/internal/rlnc"
)

// TestGenTrackerLayeredSlots runs lifecycle records over a layered
// session's namespaced ids, slotted as a node slots them: layer l's
// generation g at base[l]+g. Each id keeps its own record and events
// carry the id itself. (The node rejects ids outside the session before
// any record is touched; TestGenIndexSlots pins that.)
func TestGenTrackerLayeredSlots(t *testing.T) {
	t.Parallel()
	base := []int{0, 3, 8} // layer 0: 3 generations, layer 1: 5
	slot := func(gen uint32) int { return base[rlnc.LayerOf(gen)] + rlnc.GenOf(gen) }
	gens := make([]obs.GenLife, base[len(base)-1])
	var events []obs.GenEvent
	observe := func(gen uint32, emit int64, rank int) int64 {
		g := &gens[slot(gen)]
		events = g.Observe("n", gen, 1, emit, rank, 0, nil, events)
		return g.EmitNanos()
	}

	// Layer 0 and layer 1 share in-layer index 1 but not state.
	if got := observe(rlnc.LayerGen(0, 1), 100, 0); got != 100 {
		t.Fatalf("Observe left stamp %d, want 100", got)
	}
	if got := observe(rlnc.LayerGen(1, 1), 200, 1); got != 200 {
		t.Fatalf("Observe left stamp %d, want 200", got)
	}
	if got := observe(rlnc.LayerGen(1, 4), 300, 1); got != 300 {
		t.Fatalf("Observe left stamp %d, want 300", got)
	}
	for id, want := range map[uint32]int64{rlnc.LayerGen(0, 1): 100, rlnc.LayerGen(1, 1): 200, rlnc.LayerGen(1, 4): 300} {
		if got := gens[slot(id)].EmitNanos(); got != want {
			t.Fatalf("stamp of %#x = %d, want %d", id, got, want)
		}
	}
	wantEvents := []struct {
		gen   uint32
		phase string
	}{
		{rlnc.LayerGen(0, 1), obs.PhaseFirstPacket},
		{rlnc.LayerGen(1, 1), obs.PhaseFirstPacket},
		{rlnc.LayerGen(1, 1), obs.PhaseDecoded},
		{rlnc.LayerGen(1, 4), obs.PhaseFirstPacket},
		{rlnc.LayerGen(1, 4), obs.PhaseDecoded},
	}
	if len(events) != len(wantEvents) {
		t.Fatalf("events %+v, want %+v", events, wantEvents)
	}
	for i, w := range wantEvents {
		if events[i].Gen != w.gen || events[i].Phase != w.phase {
			t.Fatalf("event %d = %#x %s, want %#x %s", i, events[i].Gen, events[i].Phase, w.gen, w.phase)
		}
	}
	decoded := 0
	for i := range gens {
		if gens[i].Decoded() {
			decoded++
		}
	}
	if decoded != 2 {
		t.Fatalf("%d generations decoded, want the two that reached rank 1", decoded)
	}
}
