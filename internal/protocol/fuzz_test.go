package protocol

// Fuzzers for the data-frame and keepalive codecs every peer exposes to
// the network (the control codec's fuzzer is in control_test.go). Both
// decoders sit directly on attacker-reachable input (any peer can send any
// bytes), so the properties fuzzed here are the security-relevant ones: no
// panic, no unbounded allocation driven by header fields, and
// encode(decode(x)) fidelity for everything the decoder accepts.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/rlnc"
)

// fuzzField maps the fuzzer's field selector onto the three coding fields.
func fuzzField(sel uint8) gf.Field {
	switch sel % 3 {
	case 0:
		return gf.F2
	case 1:
		return gf.F256
	default:
		return gf.F65536
	}
}

// FuzzDecodeData hammers the binary data-frame decoder over all three
// fields and all data-frame variants, with and without a sequence number.
// Accepted frames must round-trip exactly: thread, seq, stamp, trace
// context, generation, coefficients, and payload all survive re-encoding.
// A malformed trace header must be rejected, never mis-routed to another
// variant.
func FuzzDecodeData(f *testing.F) {
	for sel := uint8(0); sel < 3; sel++ {
		fld := fuzzField(sel)
		p := &rlnc.Packet{Gen: 3, Coeff: []uint16{1, 0, 1}, Payload: []byte("abcd")}
		f.Add(sel, EncodeDataSeq(fld, 9, -1, 0, TraceContext{}, p))
		f.Add(sel, EncodeDataSeq(fld, 9, -1, 123456789, TraceContext{}, p))
		f.Add(sel, EncodeDataSeq(fld, 9, -1, 123456789, TraceContext{ID: 0xfeedface, Hop: 2}, p))
		f.Add(sel, EncodeDataSeq(fld, 9, -1, 0, TraceContext{ID: 1, Hop: 255}, p))
		f.Add(sel, EncodeDataSeq(fld, 9, 0, 0, TraceContext{}, p))
		f.Add(sel, EncodeDataSeq(fld, 9, SeqMod-1, 123456789, TraceContext{}, p))
		f.Add(sel, EncodeDataSeq(fld, 9, 7, 123456789, TraceContext{ID: 0xfeedface, Hop: 2}, p))
	}
	f.Add(uint8(1), []byte{0, 0, 1})                              // header only
	f.Add(uint8(1), []byte{3, 0, 1, 1, 2, 3})                     // stamped, truncated stamp
	f.Add(uint8(1), []byte{4, 0, 1, 1, 2, 3})                     // traced, truncated context
	f.Add(uint8(1), append([]byte{4, 0, 1}, make([]byte, 17)...)) // traced, zero id
	f.Add(uint8(1), []byte{0, 0x80, 1, 9})                        // seq flag, truncated seq
	f.Fuzz(func(t *testing.T, sel uint8, frame []byte) {
		fld := fuzzField(sel)
		thread, seq, stamp, tc, p, err := DecodeDataSeq(fld, frame)
		if err != nil {
			return
		}
		if seq < -1 || seq >= SeqMod {
			t.Fatalf("seq %d outside [-1, %d)", seq, SeqMod)
		}
		// Header fields must not have conjured state beyond the input:
		// everything in the packet was carried by the frame itself.
		if p.WireSize(fld) > len(frame) {
			t.Fatalf("decoded packet claims %d wire bytes from a %d-byte frame", p.WireSize(fld), len(frame))
		}
		// A frame the decoder calls traced must carry a usable context.
		if len(frame) > 0 && frame[0] == 4 && !tc.Traced() {
			t.Fatalf("traced frame accepted with zero trace id")
		}
		again := EncodeDataSeq(fld, thread, seq, stamp, tc, p)
		thread2, seq2, stamp2, tc2, p2, err := DecodeDataSeq(fld, again)
		if err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v", err)
		}
		if thread2 != thread {
			t.Fatalf("thread changed across round trip: %d -> %d", thread, thread2)
		}
		if seq2 != seq {
			t.Fatalf("seq changed across round trip: %d -> %d", seq, seq2)
		}
		// Traced frames carry the stamp verbatim; otherwise a non-positive
		// stamp encodes as the unstamped variant.
		wantStamp := stamp
		if !tc.Traced() && wantStamp <= 0 {
			wantStamp = 0
		}
		if stamp2 != wantStamp {
			t.Fatalf("stamp changed across round trip: %d -> %d", stamp, stamp2)
		}
		if tc2 != tc {
			t.Fatalf("trace context changed across round trip: %+v -> %+v", tc, tc2)
		}
		if p2.Gen != p.Gen || !equalCoeff(p2.Coeff, p.Coeff) || !bytes.Equal(p2.Payload, p.Payload) {
			t.Fatalf("packet changed across round trip:\n%+v\n%+v", p, p2)
		}
	})
}

func equalCoeff(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzDecodeKeepalive covers the third frame kind; it must never panic,
// must round-trip the thread index through the legacy 3-byte encoder for
// every frame it accepts, and must round-trip the timestamp pair through
// the echo encoder.
func FuzzDecodeKeepalive(f *testing.F) {
	f.Add(EncodeKeepalive(0))
	f.Add(EncodeKeepalive(65535))
	f.Add([]byte{2})
	f.Add(EncodeKeepaliveEcho(3, 123456789, 0, 0))              // probe
	f.Add(EncodeKeepaliveEcho(3, 0, 123456789, 42))             // echo
	f.Add(append(EncodeKeepalive(1), 0xde, 0xad))               // trailing bytes: tolerated
	f.Add(append(EncodeKeepaliveEcho(1, 1, 0, 0), 0xbe))        // over-long echo: tolerated
	f.Add(EncodeKeepaliveEcho(9, 1, 0, 0)[:keepaliveEchoLen-1]) // truncated extension
	f.Fuzz(func(t *testing.T, frame []byte) {
		ki, err := DecodeKeepaliveEcho(frame)
		if err != nil {
			return
		}
		legacy, err := DecodeKeepaliveEcho(EncodeKeepalive(ki.Thread))
		if err != nil || legacy != (KeepaliveInfo{Thread: ki.Thread}) {
			t.Fatalf("keepalive round trip: thread %d -> %+v, err %v", ki.Thread, legacy, err)
		}
		again := EncodeKeepaliveEcho(ki.Thread, ki.TxNanos, ki.EchoNanos, ki.HoldNanos)
		ki2, err := DecodeKeepaliveEcho(again)
		if err != nil || ki2 != ki {
			t.Fatalf("echo round trip: %+v -> %+v, err %v", ki, ki2, err)
		}
	})
}

// TestDataRoundTripTraced pins the traced frame variant across the three
// fields: the context survives exactly (including hop saturation values
// and a zero stamp, which the traced variant carries verbatim), and the
// two malformed shapes — truncated context, zero trace ID — are rejected
// as errors rather than mis-routed to another variant.
func TestDataRoundTripTraced(t *testing.T) {
	t.Parallel()
	for _, fld := range []gf.Field{gf.F2, gf.F256, gf.F65536} {
		p := &rlnc.Packet{Gen: 7, Coeff: []uint16{1, 0, 1, 1}, Payload: []byte("traced-payload")}
		for _, tc := range []TraceContext{
			{ID: 1, Hop: 1},
			{ID: ^uint64(0), Hop: 255},
			{ID: 0xdeadbeefcafe, Hop: 0},
		} {
			for _, stamp := range []int64{0, 42} {
				frame := EncodeDataSeq(fld, 3, -1, stamp, tc, p)
				thread, seq, gotStamp, gotTC, q, err := DecodeDataSeq(fld, frame)
				if err != nil {
					t.Fatalf("field %d tc=%+v stamp=%d: %v", fld.Bits(), tc, stamp, err)
				}
				if thread != 3 || seq != -1 || gotStamp != stamp || gotTC != tc {
					t.Fatalf("field %d: got thread=%d seq=%d stamp=%d tc=%+v, want 3/-1/%d/%+v",
						fld.Bits(), thread, seq, gotStamp, gotTC, stamp, tc)
				}
				if q.Gen != p.Gen || !equalCoeff(q.Coeff, p.Coeff) || !bytes.Equal(q.Payload, p.Payload) {
					t.Fatalf("field %d tc=%+v: packet mismatch", fld.Bits(), tc)
				}
			}
		}
		// Malformed traced frames: truncated context and zero trace ID.
		if _, _, _, _, _, err := DecodeDataSeq(fld, []byte{4, 0, 3, 1, 2}); err == nil {
			t.Fatalf("field %d: truncated traced frame accepted", fld.Bits())
		}
		zero := append([]byte{4, 0, 3}, make([]byte, 17)...)
		zero = p.AppendTo(zero, fld)
		if _, _, _, _, _, err := DecodeDataSeq(fld, zero); err == nil {
			t.Fatalf("field %d: zero-trace-id frame accepted", fld.Bits())
		}
	}
}

// TestTracedHotPathAllocs is the tracing-overhead guard: with sampling
// off (a zero TraceContext), the pooled emit and receive paths must not
// allocate at all — enabling the tracing code paths costs nothing unless
// a generation is actually sampled.
func TestTracedHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	fld := gf.F256
	src := &rlnc.Packet{Gen: 1, Coeff: []uint16{3, 1, 4, 1}, Payload: make([]byte, 256)}
	frame := EncodeDataSeq(fld, 2, -1, 12345, TraceContext{}, src)
	hot := func() {
		buf := rlnc.GetFrameBuf()
		*buf = AppendDataSeq(*buf, fld, 2, -1, 12345, TraceContext{}, src)
		_, _, _, _, p, err := DecodeDataSeq(fld, frame)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
		rlnc.PutFrameBuf(buf)
	}
	// Warm the pools outside the measured runs.
	for i := 0; i < 16; i++ {
		hot()
	}
	if allocs := testing.AllocsPerRun(200, hot); allocs != 0 {
		t.Fatalf("untraced hot path allocates %.1f objects per emit+receive, want 0", allocs)
	}
}

// TestDataRoundTripSeq pins the seq-stamped variant across the three
// fields and all three kind combinations (plain, stamped, traced): the
// sequence number survives exactly, including the wrap-point extremes, and
// seq < 0 writes no sequence bytes and leaves the flag bit clear.
func TestDataRoundTripSeq(t *testing.T) {
	t.Parallel()
	for _, fld := range []gf.Field{gf.F2, gf.F256, gf.F65536} {
		p := &rlnc.Packet{Gen: 7, Coeff: []uint16{1, 0, 1, 1}, Payload: []byte("seq-payload")}
		for _, seq := range []int32{0, 1, 1 << 12, SeqMod - 1} {
			for _, stamp := range []int64{0, 42} {
				for _, tc := range []TraceContext{{}, {ID: 0xabc, Hop: 3}} {
					frame := EncodeDataSeq(fld, 5, seq, stamp, tc, p)
					th, gotSeq, gotStamp, gotTC, q, err := DecodeDataSeq(fld, frame)
					if err != nil {
						t.Fatalf("field %d seq=%d stamp=%d tc=%+v: %v", fld.Bits(), seq, stamp, tc, err)
					}
					if th != 5 || gotSeq != seq || gotStamp != stamp || gotTC != tc {
						t.Fatalf("field %d: got th=%d seq=%d stamp=%d tc=%+v, want 5/%d/%d/%+v",
							fld.Bits(), th, gotSeq, gotStamp, gotTC, seq, stamp, tc)
					}
					if q.Gen != p.Gen || !equalCoeff(q.Coeff, p.Coeff) || !bytes.Equal(q.Payload, p.Payload) {
						t.Fatalf("field %d seq=%d: packet mismatch", fld.Bits(), seq)
					}
					// The same frame without a seq is exactly 3 bytes
					// shorter and decodes with seq -1.
					seqless := EncodeDataSeq(fld, 5, -1, stamp, tc, p)
					if len(seqless) != len(frame)-3 || seqless[1]&0x80 != 0 {
						t.Fatalf("field %d stamp=%d tc=%+v: seqless frame %x vs %x", fld.Bits(), stamp, tc, seqless, frame)
					}
					if _, gotSeq, _, _, _, err := DecodeDataSeq(fld, seqless); err != nil || gotSeq != -1 {
						t.Fatalf("field %d: seqless frame decoded seq=%d err=%v", fld.Bits(), gotSeq, err)
					}
				}
			}
		}
		// A seq-flagged frame whose body ends before the 3 seq bytes is
		// malformed, not mis-read as an unstamped frame.
		if _, _, _, _, _, err := DecodeDataSeq(fld, []byte{0, 0x80, 5, 1, 2}); err == nil {
			t.Fatalf("field %d: truncated seq frame accepted", fld.Bits())
		}
	}
}

// TestDataFrameGoldenLayout pins the exact byte layout of every data-frame
// header variant. These bytes are the wire protocol: a mixed-version fleet
// only works if they never shift.
func TestDataFrameGoldenLayout(t *testing.T) {
	t.Parallel()
	fld := gf.F256
	p := &rlnc.Packet{Gen: 3, Coeff: []uint16{1, 2, 3}, Payload: []byte("hi")}
	body := p.AppendTo(nil, fld)

	stamp8 := make([]byte, 8)
	binary.BigEndian.PutUint64(stamp8, 99)
	id8 := make([]byte, 8)
	binary.BigEndian.PutUint64(id8, 0xabc)

	join := func(parts ...[]byte) []byte {
		var out []byte
		for _, part := range parts {
			out = append(out, part...)
		}
		return out
	}
	cases := []struct {
		name  string
		frame []byte
		want  []byte
	}{
		{"plain", EncodeDataSeq(fld, 9, -1, 0, TraceContext{}, p), join([]byte{0, 0, 9}, body)},
		{"stamped", EncodeDataSeq(fld, 9, -1, 99, TraceContext{}, p), join([]byte{3, 0, 9}, stamp8, body)},
		{"traced", EncodeDataSeq(fld, 9, -1, 99, TraceContext{ID: 0xabc, Hop: 2}, p),
			join([]byte{4, 0, 9}, stamp8, id8, []byte{2}, body)},
		{"seq-plain", EncodeDataSeq(fld, 9, 0x010203, 0, TraceContext{}, p),
			join([]byte{0, 0x80, 9, 1, 2, 3}, body)},
		{"seq-stamped", EncodeDataSeq(fld, 9, 0x010203, 99, TraceContext{}, p),
			join([]byte{3, 0x80, 9, 1, 2, 3}, stamp8, body)},
		{"seq-traced", EncodeDataSeq(fld, 9, 0x010203, 99, TraceContext{ID: 0xabc, Hop: 2}, p),
			join([]byte{4, 0x80, 9, 1, 2, 3}, stamp8, id8, []byte{2}, body)},
		{"keepalive", EncodeKeepalive(0x1234), []byte{2, 0x12, 0x34}},
		{"keepalive-echo", EncodeKeepaliveEcho(0x1234, 99, 0, 0),
			join([]byte{2, 0x12, 0x34}, stamp8, make([]byte, 16))},
	}
	for _, c := range cases {
		if !bytes.Equal(c.frame, c.want) {
			t.Errorf("%s layout:\n got %x\nwant %x", c.name, c.frame, c.want)
		}
	}
}

// TestKeepaliveMixedVersions is the version-skew regression: an old node's
// 3-byte keepalive and a new node's 27-byte echo keepalive must both be
// accepted, as must frames with trailing bytes from a future extension.
// A decoder that hard-failed on any frame != 3 bytes let one extended
// keepalive from an upgraded peer silently kill the link's liveness
// signal.
func TestKeepaliveMixedVersions(t *testing.T) {
	t.Parallel()
	// A legacy frame reads as timestamp-free — neither a probe nor an
	// echo, so no RTT math runs.
	ki, err := DecodeKeepaliveEcho(EncodeKeepalive(7))
	if err != nil || ki.Thread != 7 || ki.IsProbe() || ki.IsEcho() {
		t.Fatalf("decode of legacy keepalive: %+v err=%v", ki, err)
	}
	// Future extensions: trailing bytes beyond either layout are ignored.
	long := append(EncodeKeepaliveEcho(7, 1, 2, 3), 0xff, 0xee)
	if ki, err := DecodeKeepaliveEcho(long); err != nil || ki.Thread != 7 || ki.TxNanos != 1 || ki.EchoNanos != 2 || ki.HoldNanos != 3 {
		t.Fatalf("decode of over-long keepalive: %+v err=%v", ki, err)
	}
	// Truncated frames are still malformed.
	if _, err := DecodeKeepaliveEcho([]byte{2, 0}); err == nil {
		t.Fatal("2-byte keepalive accepted")
	}
	// Probe/echo classification.
	probe := EncodeKeepaliveEcho(7, 123456789, 0, 0)
	if ki, err := DecodeKeepaliveEcho(probe); err != nil || ki.Thread != 7 || !ki.IsProbe() || ki.IsEcho() {
		t.Fatalf("probe misclassified: %+v err=%v", ki, err)
	}
	echo := EncodeKeepaliveEcho(7, 0, 123456789, 42)
	if ki, _ := DecodeKeepaliveEcho(echo); ki.IsProbe() || !ki.IsEcho() {
		t.Fatalf("echo misclassified: %+v", ki)
	}
}

// TestLinkHotPathAllocs is the link-telemetry overhead guard: the full
// per-frame accounting path — pooled seq-stamped emit, decode, sequence
// ledger, innovation verdict — must not allocate in the steady state, or
// enabling telemetry would tax every datagram.
func TestLinkHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	fld := gf.F256
	links := obs.NewLinkTracker(0)
	src := &rlnc.Packet{Gen: 1, Coeff: []uint16{3, 1, 4, 1}, Payload: make([]byte, 256)}
	seq := int32(0)
	hot := func() {
		buf := rlnc.GetFrameBuf()
		*buf = AppendDataSeq(*buf, fld, 2, seq, 12345, TraceContext{}, src)
		th, gotSeq, _, _, p, err := DecodeDataSeq(fld, *buf)
		if err != nil {
			t.Fatal(err)
		}
		links.ObserveFrame("parent", th, gotSeq, len(*buf), 12345)
		links.ObservePacket("parent", true)
		p.Release()
		rlnc.PutFrameBuf(buf)
		seq = (seq + 1) % SeqMod
	}
	// Warm the pools and the per-peer ledger outside the measured runs.
	for i := 0; i < 16; i++ {
		hot()
	}
	if allocs := testing.AllocsPerRun(200, hot); allocs != 0 {
		t.Fatalf("link-accounting hot path allocates %.1f objects per frame, want 0", allocs)
	}
}

// TestDataRoundTripAllFields pins the binary codec across the three
// fields and both frame variants, including the GF(2) bit-packing edges
// (coefficient counts straddling byte boundaries).
func TestDataRoundTripAllFields(t *testing.T) {
	t.Parallel()
	for _, fld := range []gf.Field{gf.F2, gf.F256, gf.F65536} {
		max := uint16(1)
		if fld.Bits() == 8 {
			max = 255
		} else if fld.Bits() == 16 {
			max = 65535
		}
		for _, n := range []int{1, 7, 8, 9, 16, 33} {
			coeff := make([]uint16, n)
			for i := range coeff {
				coeff[i] = uint16(i*31+1) & max
			}
			p := &rlnc.Packet{Gen: uint32(n), Coeff: coeff, Payload: []byte("payload-bytes")}
			for _, stamp := range []int64{0, 42} {
				frame := EncodeDataSeq(fld, n, -1, stamp, TraceContext{}, p)
				thread, _, gotStamp, _, q, err := DecodeDataSeq(fld, frame)
				if err != nil {
					t.Fatalf("field %d n=%d stamp=%d: %v", fld.Bits(), n, stamp, err)
				}
				if thread != n || gotStamp != stamp {
					t.Fatalf("field %d n=%d: thread/stamp %d/%d", fld.Bits(), n, thread, gotStamp)
				}
				if q.Gen != p.Gen || !equalCoeff(q.Coeff, p.Coeff) || !bytes.Equal(q.Payload, p.Payload) {
					t.Fatalf("field %d n=%d: packet mismatch", fld.Bits(), n)
				}
			}
		}
	}
}
