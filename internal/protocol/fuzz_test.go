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
// fields, untraced and traced. Accepted frames must round-trip exactly:
// thread, seq, stamp, trace context, generation, coefficients, and payload
// all survive re-encoding. A truncated header or a traced frame with a
// zero trace ID must be rejected.
func FuzzDecodeData(f *testing.F) {
	for sel := uint8(0); sel < 3; sel++ {
		fld := fuzzField(sel)
		p := &rlnc.Packet{Gen: 3, Coeff: packCoeff(fld, 1, 0, 1), Payload: []byte("abcd")}
		f.Add(sel, EncodeDataSeq(fld, 9, 0, 0, TraceContext{}, p))
		f.Add(sel, EncodeDataSeq(fld, 9, 0, 123456789, TraceContext{}, p))
		f.Add(sel, EncodeDataSeq(fld, 9, 7, 123456789, TraceContext{ID: 0xfeedface, Hop: 2}, p))
		f.Add(sel, EncodeDataSeq(fld, 9, 0, 0, TraceContext{ID: 1, Hop: 255}, p))
		f.Add(sel, EncodeDataSeq(fld, 9, SeqMod-1, 123456789, TraceContext{}, p))
		f.Add(sel, EncodeDataSeq(fld, 0x7fff, 1, 1, TraceContext{}, p))
		f.Add(sel, EncodeDataSeq(fld, 0, SeqMod-1, 0, TraceContext{ID: ^uint64(0)}, p))
	}
	// Malformed frames over GF(256), in order: a truncated header, a
	// truncated stamp, a truncated trace context, a zero trace ID, and a
	// retired kind byte. header is a traced header with seq 5, stamp 42.
	body := (&rlnc.Packet{Gen: 3, Coeff: []byte{1, 0, 1}, Payload: []byte("abcd")}).AppendTo(nil, gf.F256)
	header := []byte{0, 0x80, 1, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 42}
	f.Add(uint8(1), []byte{0, 0, 1})
	f.Add(uint8(1), header[:dataFrameHeaderLen-1])
	f.Add(uint8(1), append(append([]byte(nil), header...), 1, 2, 3))
	f.Add(uint8(1), append(append(append([]byte(nil), header...), make([]byte, traceContextLen)...), body...))
	f.Add(uint8(1), append([]byte{3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 42}, body...))
	f.Fuzz(func(t *testing.T, sel uint8, frame []byte) {
		fld := fuzzField(sel)
		thread, seq, stamp, tc, p, err := DecodeDataSeq(fld, frame)
		if err != nil {
			return
		}
		if seq < 0 || seq >= SeqMod {
			t.Fatalf("seq %d outside [0, %d)", seq, SeqMod)
		}
		// Header fields must not have conjured state beyond the input:
		// everything in the packet was carried by the frame itself.
		if p.WireSize(fld) > len(frame) {
			t.Fatalf("decoded packet claims %d wire bytes from a %d-byte frame", p.WireSize(fld), len(frame))
		}
		// A frame the decoder calls traced must carry a usable context.
		if frame[1]&0x80 != 0 && !tc.Traced() {
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
		if stamp2 != stamp {
			t.Fatalf("stamp changed across round trip: %d -> %d", stamp, stamp2)
		}
		if tc2 != tc {
			t.Fatalf("trace context changed across round trip: %+v -> %+v", tc, tc2)
		}
		if p2.Gen != p.Gen || !bytes.Equal(p2.Coeff, p.Coeff) || !bytes.Equal(p2.Payload, p.Payload) {
			t.Fatalf("packet changed across round trip:\n%+v\n%+v", p, p2)
		}
	})
}

// packCoeff lays field elements out as rlnc.Packet.Coeff holds them over
// f: one byte each over GF(2) and GF(2^8), a little-endian uint16 over
// GF(2^16).
func packCoeff(f gf.Field, v ...uint16) []byte {
	out := make([]byte, 0, len(v)*f.SymbolSize())
	for _, c := range v {
		if f.SymbolSize() == 2 {
			out = binary.LittleEndian.AppendUint16(out, c)
		} else {
			out = append(out, byte(c))
		}
	}
	return out
}

// FuzzDecodeKeepalive covers the keepalive frame kind and the completion
// report a probe may carry after it. Neither decoder may panic. The
// keepalive decoder must reject anything shorter than the 27-byte layout
// and round-trip the thread and timestamps of every frame it accepts. The
// report decoder must read the bare 27-byte frame as "nothing full",
// reject a tail cut inside its low-water word or with a bitmap over the
// 1 KiB cap, and mark full exactly the slots below the low-water mark
// and the set bits of the bitmap above it, which must survive a
// re-encode.
func FuzzDecodeKeepalive(f *testing.F) {
	f.Add(EncodeKeepaliveEcho(0, 1, 0, 0))
	f.Add(EncodeKeepaliveEcho(65535, 123456789, 0, 0))
	f.Add([]byte{2})
	f.Add([]byte{2, 0, 7})                                                     // 3-byte keepalive: rejected
	f.Add(EncodeKeepaliveEcho(3, 0, 123456789, 42))                            // echo
	f.Add(EncodeKeepaliveEcho(5, 0, 0, 0))                                     // neither probe nor echo
	f.Add(append(EncodeKeepaliveEcho(1, 1, 0, 0), 0xbe))                       // over-long: tolerated
	f.Add(EncodeKeepaliveEcho(9, 1, 0, 0)[:keepaliveEchoLen-1])                // truncated
	f.Add(append(EncodeKeepaliveEcho(1, 1, 0, 0), 0, 0, 0, 64, 0x0f, 0, 0x81)) // report
	f.Add(append(EncodeKeepaliveEcho(1, 1, 0, 0), 0xff, 0xff, 0xff, 0xff))     // all full
	f.Add(append(EncodeKeepaliveEcho(1, 1, 0, 0), make([]byte, reportTailMin+reportBitmapCap+1)...))
	f.Fuzz(func(t *testing.T, frame []byte) {
		ki, err := DecodeKeepaliveEcho(frame)
		rep, repErr := decodeReport(frame)
		if err != nil {
			if repErr == nil {
				t.Fatalf("report decoded from a frame that is no keepalive")
			}
			return
		}
		if len(frame) < keepaliveEchoLen {
			t.Fatalf("accepted a %d-byte keepalive", len(frame))
		}
		again := EncodeKeepaliveEcho(ki.Thread, ki.TxNanos, ki.EchoNanos, ki.HoldNanos)
		ki2, err := DecodeKeepaliveEcho(again)
		if err != nil || ki2 != ki {
			t.Fatalf("echo round trip: %+v -> %+v, err %v", ki, ki2, err)
		}
		tail := frame[keepaliveEchoLen:]
		switch {
		case len(tail) == 0:
			if repErr != nil || !rep.empty() {
				t.Fatalf("bare keepalive read as %+v, err %v", rep, repErr)
			}
			return
		case len(tail) < reportTailMin || len(tail) > reportTailMin+reportBitmapCap:
			if repErr == nil {
				t.Fatalf("accepted a %d-byte tail", len(tail))
			}
			return
		case repErr != nil:
			t.Fatalf("rejected a %d-byte tail: %v", len(tail), repErr)
		}
		low := uint64(binary.BigEndian.Uint32(tail))
		bitmap := tail[reportTailMin:]
		for _, slot := range []uint64{0, low / 2, low - 1, low, low + 1, low + 7, low + 8, low + 8*uint64(len(bitmap)) - 1, low + 8*uint64(len(bitmap))} {
			if slot > 1<<32 {
				continue
			}
			want := slot < low
			if i := slot - low; slot >= low && i < 8*uint64(len(bitmap)) {
				want = bitmap[i/8]>>(i%8)&1 != 0
			}
			if rep.full(int(slot)) != want {
				t.Fatalf("slot %d (low %d): full=%v, want %v", slot, low, rep.full(int(slot)), want)
			}
		}
		rep2, err := decodeReport(appendReport(EncodeKeepaliveEcho(ki.Thread, ki.TxNanos, 0, 0), rep))
		if err != nil || !rep2.equal(rep) {
			t.Fatalf("report round trip: %+v -> %+v, err %v", rep, rep2, err)
		}
	})
}

// TestDataRoundTripTraced pins the traced frame across the three fields:
// the context survives exactly (including hop saturation values and a
// zero stamp), and the two malformed shapes — truncated context, zero
// trace ID — are rejected as errors.
func TestDataRoundTripTraced(t *testing.T) {
	t.Parallel()
	for _, fld := range []gf.Field{gf.F2, gf.F256, gf.F65536} {
		p := &rlnc.Packet{Gen: 7, Coeff: packCoeff(fld, 1, 0, 1, 1), Payload: []byte("traced-payload")}
		for _, tc := range []TraceContext{
			{ID: 1, Hop: 1},
			{ID: ^uint64(0), Hop: 255},
			{ID: 0xdeadbeefcafe, Hop: 0},
		} {
			for _, stamp := range []int64{0, 42} {
				frame := EncodeDataSeq(fld, 3, 11, stamp, tc, p)
				thread, seq, gotStamp, gotTC, q, err := DecodeDataSeq(fld, frame)
				if err != nil {
					t.Fatalf("field %d tc=%+v stamp=%d: %v", fld.Bits(), tc, stamp, err)
				}
				if thread != 3 || seq != 11 || gotStamp != stamp || gotTC != tc {
					t.Fatalf("field %d: got thread=%d seq=%d stamp=%d tc=%+v, want 3/11/%d/%+v",
						fld.Bits(), thread, seq, gotStamp, gotTC, stamp, tc)
				}
				if q.Gen != p.Gen || !bytes.Equal(q.Coeff, p.Coeff) || !bytes.Equal(q.Payload, p.Payload) {
					t.Fatalf("field %d tc=%+v: packet mismatch", fld.Bits(), tc)
				}
			}
		}
		// Malformed traced frames: truncated context and zero trace ID.
		header := EncodeDataSeq(fld, 3, 11, 42, TraceContext{ID: 1}, p)[:dataFrameHeaderLen]
		truncated := append(append([]byte(nil), header...), 1, 2)
		if _, _, _, _, _, err := DecodeDataSeq(fld, truncated); err == nil {
			t.Fatalf("field %d: truncated traced frame accepted", fld.Bits())
		}
		zero := append(append([]byte(nil), header...), make([]byte, traceContextLen)...)
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
	src := &rlnc.Packet{Gen: 1, Coeff: []byte{3, 1, 4, 1}, Payload: make([]byte, 256)}
	frame := EncodeDataSeq(fld, 2, 0, 12345, TraceContext{}, src)
	hot := func() {
		buf := rlnc.GetFrameBuf()
		*buf = AppendDataSeq(*buf, fld, 2, 0, 12345, TraceContext{}, src)
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

// TestDataRoundTripSeq pins the sequence number across the three fields,
// with and without a stamp and a trace context: it survives exactly,
// including the wrap-point extremes, and a header cut short anywhere is
// rejected.
func TestDataRoundTripSeq(t *testing.T) {
	t.Parallel()
	for _, fld := range []gf.Field{gf.F2, gf.F256, gf.F65536} {
		p := &rlnc.Packet{Gen: 7, Coeff: packCoeff(fld, 1, 0, 1, 1), Payload: []byte("seq-payload")}
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
					if q.Gen != p.Gen || !bytes.Equal(q.Coeff, p.Coeff) || !bytes.Equal(q.Payload, p.Payload) {
						t.Fatalf("field %d seq=%d: packet mismatch", fld.Bits(), seq)
					}
				}
			}
		}
		frame := EncodeDataSeq(fld, 5, 1, 42, TraceContext{}, p)
		for n := 0; n < dataFrameHeaderLen; n++ {
			if _, _, _, _, _, err := DecodeDataSeq(fld, frame[:n]); err == nil {
				t.Fatalf("field %d: %d-byte header accepted", fld.Bits(), n)
			}
		}
	}
}

// TestDataFrameGoldenLayout pins the exact bytes of the two data-frame
// headers (untraced, 14 B; traced, 23 B) and the 27-byte keepalive. These
// bytes are the wire protocol; they must never shift.
func TestDataFrameGoldenLayout(t *testing.T) {
	t.Parallel()
	fld := gf.F256
	p := &rlnc.Packet{Gen: 3, Coeff: []byte{1, 2, 3}, Payload: []byte("hi")}
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
		{"data", EncodeDataSeq(fld, 9, 0x010203, 99, TraceContext{}, p),
			join([]byte{0, 0, 9, 1, 2, 3}, stamp8, body)},
		{"traced", EncodeDataSeq(fld, 9, 0x010203, 99, TraceContext{ID: 0xabc, Hop: 2}, p),
			join([]byte{0, 0x80, 9, 1, 2, 3}, stamp8, id8, []byte{2}, body)},
		{"keepalive", EncodeKeepaliveEcho(0x1234, 99, 0, 0),
			join([]byte{2, 0x12, 0x34}, stamp8, make([]byte, 16))},
	}
	for _, c := range cases {
		if !bytes.Equal(c.frame, c.want) {
			t.Errorf("%s layout:\n got %x\nwant %x", c.name, c.frame, c.want)
		}
	}
}

// TestKeepaliveMixedVersions is the version-skew regression: frames with
// trailing bytes from a future extension must be accepted, while the
// retired 3-byte keepalive and any frame cut short of the 27-byte layout
// are malformed.
func TestKeepaliveMixedVersions(t *testing.T) {
	t.Parallel()
	// Future extensions: trailing bytes beyond the layout are ignored.
	long := append(EncodeKeepaliveEcho(7, 1, 2, 3), 0xff, 0xee)
	if ki, err := DecodeKeepaliveEcho(long); err != nil || ki.Thread != 7 || ki.TxNanos != 1 || ki.EchoNanos != 2 || ki.HoldNanos != 3 {
		t.Fatalf("decode of over-long keepalive: %+v err=%v", ki, err)
	}
	// Truncated frames, the retired 3-byte layout among them, are malformed.
	for _, n := range []int{2, 3, keepaliveEchoLen - 1} {
		if _, err := DecodeKeepaliveEcho(EncodeKeepaliveEcho(7, 1, 0, 0)[:n]); err == nil {
			t.Fatalf("%d-byte keepalive accepted", n)
		}
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
// per-frame accounting path — pooled emit, decode, sequence ledger,
// innovation verdict — must not allocate in the steady state, or the
// telemetry would tax every data frame.
func TestLinkHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	fld := gf.F256
	links := obs.NewLinkTracker(0)
	src := &rlnc.Packet{Gen: 1, Coeff: []byte{3, 1, 4, 1}, Payload: make([]byte, 256)}
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
// fields, stamped and unstamped, including the GF(2) bit-packing edges
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
			p := &rlnc.Packet{Gen: uint32(n), Coeff: packCoeff(fld, coeff...), Payload: []byte("payload-bytes")}
			for _, stamp := range []int64{0, 42} {
				frame := EncodeDataSeq(fld, n, 0, stamp, TraceContext{}, p)
				thread, _, gotStamp, _, q, err := DecodeDataSeq(fld, frame)
				if err != nil {
					t.Fatalf("field %d n=%d stamp=%d: %v", fld.Bits(), n, stamp, err)
				}
				if thread != n || gotStamp != stamp {
					t.Fatalf("field %d n=%d: thread/stamp %d/%d", fld.Bits(), n, thread, gotStamp)
				}
				if q.Gen != p.Gen || !bytes.Equal(q.Coeff, p.Coeff) || !bytes.Equal(q.Payload, p.Payload) {
					t.Fatalf("field %d n=%d: packet mismatch", fld.Bits(), n)
				}
			}
		}
	}
}
