package protocol

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ncast/internal/obs"
)

// controlFixture is one control message and the type that names it.
type controlFixture struct {
	typ MsgType
	msg interface{} // pointer to the message struct
}

// controlFixtures returns one message of every control type with every
// field non-zero, so a field the codec forgets fails the round trip.
func controlFixtures() []controlFixture {
	return []controlFixture{
		{MsgHello, &Hello{Addr: "n1", Degree: 3}},
		{MsgWelcome, &Welcome{ID: 7, K: 32, Degree: 4, Threads: []int{1, 5, 9},
			Session: SessionParams{FieldBits: 8, GenSize: 16, PacketSize: 512, ContentLen: 1 << 20,
				LayerSizes: []int{4096, 1044480}},
			LeaseMillis: 500, StatsMillis: 1000}},
		{MsgGoodbye, &Goodbye{ID: 7}},
		{MsgGoodbyeAck, &GoodbyeAck{}},
		{MsgComplaint, &Complaint{ID: 9, Thread: 2, ParentAddr: "n4"}},
		{MsgRedirect, &Redirect{Thread: 1, ChildAddr: "n8"}},
		{MsgComplete, &Complete{ID: 3}},
		{MsgError, &ErrorMsg{Reason: "full"}},
		{MsgExpelled, &Expelled{ID: 11}},
		{MsgCongested, &Congested{ID: 2}},
		{MsgUncongested, &Uncongested{ID: 2}},
		{MsgThreadDropped, &ThreadDropped{Thread: 6}},
		{MsgThreadAdded, &ThreadAdded{Thread: 6, ChildAddr: "n2"}},
		{MsgLease, &Lease{ID: 5}},
		{MsgStatsReport, &StatsReport{ID: 5, Rank: 12, MaxRank: 64, GenRanks: []int{4, 8, -1},
			GensDone: 1, TotalGens: 3, Complete: true,
			Received: 100, Innovative: 12, Redundant: 88, Complaints: 2, LeaseRenewals: 9, QueueDepth: 3,
			DelayP50Nanos: 1000, DelayP90Nanos: 2000, DelayP99Nanos: 3000, OverheadPermille: 1100,
			TraceHops: []obs.TraceHop{{TraceID: 0xfeedface, Gen: 3, Hop: 2, Received: 9, Innovative: 8,
				Forwarded: 16, FirstArrivalNano: 1 << 40, LastArrivalNano: 1<<40 + 5, EmitNanos: 1<<40 - 7}},
			Links: []obs.LinkReport{{Peer: "n3", Frames: 10, Bytes: 10240, Expected: 11, Received: 10,
				Dup: 1, Reordered: 2, LossPermille: 90, RTTEwmaNanos: 250000, JitterNanos: 12000,
				RTTSamples: 4, Innovative: 7, Redundant: 3, InnovationPermille: 700,
				LastRecvUnixNanos: 1 << 60}}}},
	}
}

// hostileFrame is a named hostile-length control frame.
type hostileFrame struct {
	name  string
	frame []byte
}

// hostileControlFrames returns frames whose first string or slice claims
// far more elements than the frame holds, one per such field.
func hostileControlFrames(t testing.TB) []hostileFrame {
	t.Helper()
	huge := binary.AppendUvarint(nil, 1<<62)
	frame := func(typ MsgType, parts ...[]byte) []byte {
		out := []byte{frameControl, byte(typ)}
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// The zero report's body ends in the two zero counts of TraceHops and
	// Links; what precedes them is a valid prefix for either.
	zero, err := EncodeControl(MsgStatsReport, StatsReport{})
	if err != nil {
		t.Fatal(err)
	}
	stats := zero[2 : len(zero)-2]
	// Seven scalar fields of a welcome, each a one-byte varint.
	welcome := []byte{7, 0x40, 8, 0x10, 0x20, 0x40, 0x40}
	return []hostileFrame{
		{"hello addr", frame(MsgHello, huge)},
		{"error reason", frame(MsgError, huge)},
		{"redirect child", frame(MsgRedirect, []byte{2}, huge)},
		{"welcome layer sizes", frame(MsgWelcome, welcome, huge)},
		{"welcome threads", frame(MsgWelcome, welcome, []byte{0}, huge)},
		{"stats gen ranks", frame(MsgStatsReport, stats[:3], huge)},
		{"stats trace hops", frame(MsgStatsReport, stats, huge)},
		{"stats links", frame(MsgStatsReport, stats, []byte{0}, huge)},
		// Two hops need at least 18 bytes; ten are left.
		{"stats short hops", frame(MsgStatsReport, stats, []byte{2}, make([]byte, 10))},
	}
}

// controlSeeds returns every fixture frame, a truncation of each, the
// hostile-length frames, and structural edge cases, so the fuzzer starts
// inside the grammar and at its edges.
func controlSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, fx := range controlFixtures() {
		frame, err := EncodeControl(fx.typ, fx.msg)
		if err != nil {
			t.Fatalf("seed encode %d: %v", fx.typ, err)
		}
		seeds = append(seeds, frame, frame[:2+(len(frame)-2)/2])
	}
	for _, h := range hostileControlFrames(t) {
		seeds = append(seeds, h.frame)
	}
	return append(seeds,
		[]byte{},                   // empty
		[]byte{frameControl},       // kind byte, no type
		[]byte{frameControl, 0xff}, // unknown type
		append([]byte{frameControl}, `{"t":1,"p":{"addr":"x"}}`...), // older peer's JSON
	)
}

// decodeAllocs decodes body as type t into a fresh message three times
// and returns the fewest bytes one decode allocated, and its error.
// Decoding is deterministic, so the minimum leaves out what the fuzzer's
// own goroutines allocate meanwhile.
func decodeAllocs(t MsgType, body []byte) (uint64, error) {
	var ms runtime.MemStats
	var err error
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		msg := newControl(t)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		err = UnmarshalControl(t, body, msg)
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	return least, err
}

// FuzzDecodeControl hammers the control decoder with arbitrary bytes. It
// must never panic; decoding a body may allocate no more than a small
// multiple of the body's size, whatever its counts claim; and every
// message UnmarshalControl accepts must re-encode to a frame that decodes
// to a DeepEqual message. The body is decoded as every type, not just the
// one its frame names: to a decoder a mistyped frame is just bytes.
func FuzzDecodeControl(f *testing.F) {
	for _, s := range controlSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		typ, body, err := SplitControl(frame)
		if err != nil {
			return
		}
		known := newControl(typ) != nil
		if known {
			var grew uint64
			if grew, err = decodeAllocs(typ, body); grew > 16*uint64(len(body))+4096 {
				t.Fatalf("decoding a %d-byte body as type %d allocated %d bytes", len(body), typ, grew)
			}
		}
		// The JSON view accepts exactly what the typed path accepts.
		if _, _, jerr := DecodeControl(frame); (jerr == nil) != (known && err == nil) {
			t.Fatalf("JSON view and typed path disagree on type %d: %v vs %v", typ, jerr, err)
		}
		for as := MsgHello; as <= MsgStatsReport; as++ {
			msg := newControl(as)
			if UnmarshalControl(as, body, msg) != nil {
				continue
			}
			again, err := EncodeControl(as, msg)
			if err != nil {
				t.Fatalf("re-encode of accepted type %d: %v", as, err)
			}
			typ2, body2, err := SplitControl(again)
			if err != nil || typ2 != as {
				t.Fatalf("re-encoded type %d split as %d: %v", as, typ2, err)
			}
			msg2 := newControl(as)
			if err := UnmarshalControl(typ2, body2, msg2); err != nil {
				t.Fatalf("decode of re-encoded type %d: %v", as, err)
			}
			if !reflect.DeepEqual(msg, msg2) {
				t.Fatalf("type %d changed across round trip:\n%+v\n%+v", as, msg, msg2)
			}
		}
	})
}

// requireNonZero fails for any zero field, recursively, so a fixture
// cannot leave a field out of the round trip.
func requireNonZero(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Ptr:
		requireNonZero(t, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireNonZero(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("%s is empty", path)
		}
		for i := 0; i < v.Len(); i++ {
			requireNonZero(t, path, v.Index(i))
		}
	default:
		if v.IsZero() {
			t.Errorf("%s is zero", path)
		}
	}
}

// TestControlRoundTripAllTypes pins the codec for every control type with
// every field set: the typed path returns a DeepEqual message, the JSON
// view returns the same message, bytes appended after the layout are
// ignored, and every truncation of the frame is rejected.
func TestControlRoundTripAllTypes(t *testing.T) {
	t.Parallel()
	seen := make(map[MsgType]bool)
	for _, fx := range controlFixtures() {
		seen[fx.typ] = true
		requireNonZero(t, reflect.TypeOf(fx.msg).Elem().Name(), reflect.ValueOf(fx.msg))
		frame, err := EncodeControl(fx.typ, fx.msg)
		if err != nil {
			t.Fatalf("encode %d: %v", fx.typ, err)
		}
		// A struct value encodes exactly like a pointer to it.
		byValue, err := EncodeControl(fx.typ, reflect.ValueOf(fx.msg).Elem().Interface())
		if err != nil || !bytes.Equal(byValue, frame) {
			t.Fatalf("type %d: value encoding %x differs from pointer encoding %x (%v)", fx.typ, byValue, frame, err)
		}

		typ, body, err := SplitControl(append(frame, 0xde, 0xad, 0xbe, 0xef))
		if err != nil || typ != fx.typ {
			t.Fatalf("split %d: type %d, %v", fx.typ, typ, err)
		}
		got := newControl(typ)
		if err := UnmarshalControl(typ, body, got); err != nil {
			t.Fatalf("unmarshal %d with trailing bytes: %v", fx.typ, err)
		}
		if !reflect.DeepEqual(got, fx.msg) {
			t.Fatalf("type %d typed round trip:\n got %+v\nwant %+v", fx.typ, got, fx.msg)
		}

		jtyp, raw, err := DecodeControl(frame)
		if err != nil || jtyp != fx.typ {
			t.Fatalf("JSON view of %d: type %d, %v", fx.typ, jtyp, err)
		}
		viewed := newControl(fx.typ)
		if err := json.Unmarshal(raw, viewed); err != nil {
			t.Fatalf("JSON view of %d: %v", fx.typ, err)
		}
		if !reflect.DeepEqual(viewed, fx.msg) {
			t.Fatalf("type %d JSON view round trip:\n got %+v\nwant %+v", fx.typ, viewed, fx.msg)
		}

		// A message with fields ends in a field, so every shorter body is
		// missing part of one.
		for cut := 2; cut < len(frame); cut++ {
			if err := UnmarshalControl(fx.typ, frame[2:cut], newControl(fx.typ)); err == nil {
				t.Fatalf("type %d accepted a frame truncated to %d of %d bytes", fx.typ, cut, len(frame))
			}
		}
	}
	for typ := MsgHello; typ <= MsgStatsReport; typ++ {
		if !seen[typ] {
			t.Errorf("no fixture for type %d", typ)
		}
	}
}

// TestControlTypeMismatch: a payload that is not the struct its type
// names is an error on both sides, never a silent misencoding.
func TestControlTypeMismatch(t *testing.T) {
	t.Parallel()
	if _, err := EncodeControl(MsgWelcome, Hello{Addr: "n1"}); !errors.Is(err, errControlType) {
		t.Fatalf("hello encoded as a welcome: %v", err)
	}
	if _, err := EncodeControl(MsgHello, "n1"); !errors.Is(err, errControlType) {
		t.Fatalf("string encoded as a hello: %v", err)
	}
	frame, err := EncodeControl(MsgHello, Hello{Addr: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalControl(MsgHello, frame[2:], new(Welcome)); !errors.Is(err, errControlType) {
		t.Fatalf("hello decoded into a welcome: %v", err)
	}
	if err := UnmarshalControl(MsgHello, frame[2:], Hello{}); !errors.Is(err, errControlType) {
		t.Fatalf("hello decoded into a struct value: %v", err)
	}
	if _, _, err := SplitControl([]byte{frameData, byte(MsgHello)}); err == nil {
		t.Fatal("data frame split as control")
	}
}

// TestControlFrameGoldenLayout pins the exact bytes of three control
// frames. These bytes are the wire protocol: a mixed-version fleet only
// works if they never shift.
func TestControlFrameGoldenLayout(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		typ  MsgType
		msg  interface{}
		want []byte
	}{
		{"hello", MsgHello, Hello{Addr: "n1", Degree: 3},
			[]byte{1, 1, 2, 'n', '1', 6}},
		{"welcome", MsgWelcome, Welcome{ID: 7, K: 32, Degree: 4, Threads: []int{1, 5, 9},
			Session:     SessionParams{FieldBits: 8, GenSize: 16, PacketSize: 512, ContentLen: 1 << 20},
			LeaseMillis: 500, StatsMillis: 1000},
			[]byte{1, 2,
				7,          // ID
				0x40, 0x08, // K 32, Degree 4 (zig-zag)
				0x10, 0x20, 0x80, 0x08, 0x80, 0x80, 0x80, 0x01, // field bits, gen size, packet size, content length
				0,                   // no layer sizes
				3, 0x02, 0x0a, 0x12, // threads 1, 5, 9
				0xe8, 0x07, 0xd0, 0x0f}}, // lease 500 ms, stats 1000 ms
		{"redirect", MsgRedirect, Redirect{Thread: 3, ChildAddr: "c9"},
			[]byte{1, 6, 6, 2, 'c', '9'}},
	}
	for _, c := range cases {
		got, err := EncodeControl(c.typ, c.msg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s layout:\n got %x\nwant %x", c.name, got, c.want)
		}
	}
}

// TestControlHostileLengths: a string or slice count larger than the
// bytes left is rejected before anything is allocated for it, whichever
// field carries it. Not parallel: AllocsPerRun counts the whole
// process's mallocs, so a parallel test allocating beside it reads as
// this rejection allocating.
func TestControlHostileLengths(t *testing.T) {
	for _, h := range hostileControlFrames(t) {
		name := h.name
		typ, body, err := SplitControl(h.frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		into := newControl(typ)
		if err := UnmarshalControl(typ, body, into); !errors.Is(err, errControlLength) {
			t.Fatalf("%s: err = %v, want a length rejection", name, err)
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = UnmarshalControl(typ, body, into) }); allocs != 0 {
			t.Errorf("%s: rejection allocates %.1f objects", name, allocs)
		}
	}
}

// TestLegacyJSONControlFrameIgnored: an older peer's JSON envelope has '{'
// where the type byte sits. That names no message type, so the frame is
// ignored as an unknown type — never misread as a binary message — and
// the tracker admits nothing from it.
func TestLegacyJSONControlFrameIgnored(t *testing.T) {
	t.Parallel()
	legacy := append([]byte{frameControl}, `{"t":1,"p":{"addr":"old","degree":2}}`...)
	typ, body, err := SplitControl(legacy)
	if err != nil || typ != MsgType('{') {
		t.Fatalf("split: type %d, %v", typ, err)
	}
	if newControl(typ) != nil {
		t.Fatalf("'{' names control type %d", typ)
	}
	if err := UnmarshalControl(typ, body, new(Hello)); err == nil {
		t.Fatal("legacy frame decoded as a hello")
	}
	if _, _, err := DecodeControl(legacy); err == nil {
		t.Fatal("JSON view accepted a legacy frame")
	}
	tr, _ := newAdmissionTracker(t, 8, 2)
	if pending := tr.ingest(context.Background(), time.Now(), "old", legacy, nil); len(pending) != 0 {
		t.Fatalf("legacy frame queued %d hellos", len(pending))
	}
	if n := tr.NumNodes(); n != 0 {
		t.Fatalf("legacy frame created %d rows", n)
	}
}

// helloWelcomeRoundTrip encodes and decodes one hello and one welcome
// through the typed path, as a join does.
func helloWelcomeRoundTrip(hello Hello, welcome Welcome) error {
	frame, err := EncodeControl(MsgHello, hello)
	if err != nil {
		return err
	}
	typ, body, err := SplitControl(frame)
	if err != nil {
		return err
	}
	var h Hello
	if err := UnmarshalControl(typ, body, &h); err != nil {
		return err
	}
	if frame, err = EncodeControl(MsgWelcome, welcome); err != nil {
		return err
	}
	if typ, body, err = SplitControl(frame); err != nil {
		return err
	}
	var w Welcome
	return UnmarshalControl(typ, body, &w)
}

var (
	joinHello   = Hello{Addr: "swarm0!n12345", Degree: 4}
	joinWelcome = Welcome{ID: 12345, K: 32, Degree: 4, Threads: []int{3, 9, 17, 30}, LeaseMillis: 500,
		Session: SessionParams{FieldBits: 8, GenSize: 8, PacketSize: 64, ContentLen: 512}}
)

// TestControlCodecAllocs is the control codec's allocation guard: a hello
// and welcome round trip allocates the two frames, the hello's address and
// the welcome's thread list, and nothing else.
func TestControlCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	var err error
	allocs := testing.AllocsPerRun(200, func() { err = helloWelcomeRoundTrip(joinHello, joinWelcome) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 4 {
		t.Fatalf("hello+welcome round trip allocates %.1f objects, want at most 4", allocs)
	}
}

// BenchmarkControlRoundTrip measures one join's control codec work: a
// hello and a welcome, each encoded, split and decoded.
func BenchmarkControlRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := helloWelcomeRoundTrip(joinHello, joinWelcome); err != nil {
			b.Fatal(err)
		}
	}
}
