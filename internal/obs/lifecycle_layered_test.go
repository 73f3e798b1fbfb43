package obs_test

import (
	"testing"

	"ncast/internal/obs"
	"ncast/internal/rlnc"
)

// TestGenTrackerLayeredSlots runs the tracker over a layered session's
// namespaced ids, slotted as a node slots them: layer l's generation g at
// base[l]+g. Each id keeps its own state and events carry the id itself;
// an id outside the session is ignored.
func TestGenTrackerLayeredSlots(t *testing.T) {
	t.Parallel()
	base := []int{0, 3, 8} // layer 0: 3 generations, layer 1: 5
	slot := func(gen uint32) (int, bool) {
		l, g := rlnc.LayerOf(gen), rlnc.GenOf(gen)
		if l >= len(base)-1 || g >= base[l+1]-base[l] {
			return 0, false
		}
		return base[l] + g, true
	}
	var events []obs.GenEvent
	gt := obs.NewGenTracker("n", 1, base[len(base)-1], slot, nil, func(ev obs.GenEvent) { events = append(events, ev) })

	// Layer 0 and layer 1 share in-layer index 1 but not state.
	if got := gt.Observe(rlnc.LayerGen(0, 1), 100, 0); got != 100 {
		t.Fatalf("Observe returned stamp %d, want 100", got)
	}
	if got := gt.Observe(rlnc.LayerGen(1, 1), 200, 1); got != 200 {
		t.Fatalf("Observe returned stamp %d, want 200", got)
	}
	if got := gt.Observe(rlnc.LayerGen(1, 4), 300, 1); got != 300 {
		t.Fatalf("Observe returned stamp %d, want 300", got)
	}
	for id, want := range map[uint32]int64{rlnc.LayerGen(0, 1): 100, rlnc.LayerGen(1, 1): 200, rlnc.LayerGen(1, 4): 300} {
		if got := gt.EmitStamp(id); got != want {
			t.Fatalf("EmitStamp(%#x) = %d, want %d", id, got, want)
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

	// Past a layer's last generation, and past the last layer.
	for _, id := range []uint32{rlnc.LayerGen(0, 3), rlnc.LayerGen(1, 5), rlnc.LayerGen(2, 0)} {
		if got := gt.Observe(id, 400, 1); got != 0 {
			t.Fatalf("Observe(%#x) returned stamp %d for an id outside the session", id, got)
		}
		if got := gt.EmitStamp(id); got != 0 {
			t.Fatalf("EmitStamp(%#x) = %d for an id outside the session", id, got)
		}
	}
	if len(events) != len(wantEvents) {
		t.Fatalf("ids outside the session emitted %+v", events[len(wantEvents):])
	}
	if ov := gt.Overheads(); len(ov) != 2 {
		t.Fatalf("overheads %v, want the two decoded generations", ov)
	}
}
