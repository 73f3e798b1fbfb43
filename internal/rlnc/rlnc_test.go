package rlnc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"ncast/internal/gf"
)

var fields = []gf.Field{gf.F2, gf.F256, gf.F65536}

// packCoeff lays field elements out as Packet.Coeff holds them over f:
// one 0/1 byte each over GF(2), one byte over GF(2^8), a little-endian
// uint16 over GF(2^16).
func packCoeff(f gf.Field, v []uint16) []byte {
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

// unpackCoeff reads a Packet.Coeff over f back into field elements.
func unpackCoeff(f gf.Field, b []byte) []uint16 {
	out := make([]uint16, len(b)/f.SymbolSize())
	for i := range out {
		if f.SymbolSize() == 2 {
			out[i] = binary.LittleEndian.Uint16(b[2*i:])
		} else {
			out[i] = uint16(b[i])
		}
	}
	return out
}

// randCoeff draws h random coefficients over f in Packet.Coeff layout.
func randCoeff(f gf.Field, r *rand.Rand, h int) []byte {
	v := make([]uint16, h)
	for i := range v {
		v[i] = f.Rand(r)
	}
	return packCoeff(f, v)
}

func randSource(r *rand.Rand, h, size int) [][]byte {
	src := make([][]byte, h)
	for i := range src {
		src[i] = make([]byte, size)
		r.Read(src[i])
	}
	return src
}

func TestEncoderValidation(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name    string
		f       gf.Field
		src     [][]byte
		wantErr bool
	}{
		{"ok", gf.F256, [][]byte{{1, 2}, {3, 4}}, false},
		{"empty", gf.F256, nil, true},
		{"ragged", gf.F256, [][]byte{{1, 2}, {3}}, true},
		{"zero size", gf.F256, [][]byte{{}}, true},
		{"odd for gf16", gf.F65536, [][]byte{{1, 2, 3}}, true},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			_, err := NewEncoder(tt.f, 0, tt.src)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewEncoder error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(1))
			const h, size = 16, 64
			src := randSource(r, h, size)
			enc, err := NewEncoder(f, 7, src)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(f, 7, h, size)
			if err != nil {
				t.Fatal(err)
			}
			sent := 0
			for !dec.Complete() {
				if sent > 20*h {
					t.Fatalf("decoder not complete after %d packets (rank %d)", sent, dec.Rank())
				}
				if _, err := dec.Add(enc.Packet(r)); err != nil {
					t.Fatal(err)
				}
				sent++
			}
			got, err := dec.Source()
			if err != nil {
				t.Fatal(err)
			}
			for i := range src {
				if !bytes.Equal(got[i], src[i]) {
					t.Fatalf("source packet %d mismatch", i)
				}
			}
			// Large fields should need almost exactly h packets.
			if f.Bits() >= 8 && sent > h+3 {
				t.Errorf("%s needed %d packets for h=%d; expected near-optimal", f.Name(), sent, h)
			}
		})
	}
}

func TestSystematicSeeding(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(2))
	const h, size = 8, 32
	src := randSource(r, h, size)
	enc, err := NewEncoder(gf.F256, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(gf.F256, 0, h, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < h; i++ {
		p, err := enc.Systematic(i)
		if err != nil {
			t.Fatal(err)
		}
		inn, err := dec.Add(p)
		if err != nil {
			t.Fatal(err)
		}
		if !inn {
			t.Fatalf("systematic packet %d not innovative", i)
		}
	}
	if !dec.Complete() {
		t.Fatal("h systematic packets did not complete the decoder")
	}
	if _, err := enc.Systematic(h); err == nil {
		t.Error("Systematic out of range did not error")
	}
}

func TestDecoderRejectsWrongGeneration(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(3))
	src := randSource(r, 4, 16)
	enc, _ := NewEncoder(gf.F256, 1, src)
	dec, _ := NewDecoder(gf.F256, 2, 4, 16)
	if _, err := dec.Add(enc.Packet(r)); err == nil {
		t.Fatal("decoder accepted packet from wrong generation")
	}
}

func TestNonInnovativePacketsDetected(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(4))
	const h, size = 4, 16
	src := randSource(r, h, size)
	enc, _ := NewEncoder(gf.F256, 0, src)
	dec, _ := NewDecoder(gf.F256, 0, h, size)
	p := enc.Packet(r)
	if inn, _ := dec.Add(p); !inn {
		t.Fatal("first packet not innovative")
	}
	// The identical packet again must not be innovative.
	if inn, _ := dec.Add(p); inn {
		t.Fatal("duplicate packet counted as innovative")
	}
	if dec.Rank() != 1 {
		t.Fatalf("rank = %d, want 1", dec.Rank())
	}
	// A scalar multiple is also non-innovative.
	q := p.Clone()
	gf.F256.MulSlice(q.Coeff, q.Coeff, 5)
	gf.F256.MulSlice(q.Payload, q.Payload, 5)
	if inn, _ := dec.Add(q); inn {
		t.Fatal("scalar multiple counted as innovative")
	}
}

func TestZeroPacketNotInnovative(t *testing.T) {
	t.Parallel()
	dec, _ := NewDecoder(gf.F256, 0, 4, 16)
	p := &Packet{Gen: 0, Coeff: make([]byte, 4), Payload: make([]byte, 16)}
	inn, err := dec.Add(p)
	if err != nil {
		t.Fatal(err)
	}
	if inn {
		t.Fatal("zero packet counted as innovative")
	}
}

func TestRecoderChain(t *testing.T) {
	t.Parallel()
	// Server -> recoder1 -> recoder2 -> decoder, the §3 "thread" pattern:
	// content must survive two stages of re-mixing.
	for _, f := range []gf.Field{gf.F256, gf.F65536} {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(5))
			const h, size = 12, 48
			src := randSource(r, h, size)
			enc, _ := NewEncoder(f, 0, src)
			rc1, _ := NewRecoder(f, 0, h, size)
			rc2, _ := NewRecoder(f, 0, h, size)
			dec, _ := NewDecoder(f, 0, h, size)

			for i := 0; i < h+2; i++ {
				if _, err := rc1.Add(enc.Packet(r)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < h+2; i++ {
				p, ok := rc1.Packet(r)
				if !ok {
					t.Fatal("rc1 empty")
				}
				if _, err := rc2.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			sent := 0
			for !dec.Complete() && sent < 10*h {
				p, ok := rc2.Packet(r)
				if !ok {
					t.Fatal("rc2 empty")
				}
				if _, err := dec.Add(p); err != nil {
					t.Fatal(err)
				}
				sent++
			}
			if !dec.Complete() {
				t.Fatalf("decoder stuck at rank %d after %d recoded packets", dec.Rank(), sent)
			}
			got, err := dec.Source()
			if err != nil {
				t.Fatal(err)
			}
			for i := range src {
				if !bytes.Equal(got[i], src[i]) {
					t.Fatalf("source packet %d corrupted through recoding chain", i)
				}
			}
		})
	}
}

func TestRecoderPartialRankForwarding(t *testing.T) {
	t.Parallel()
	// A recoder holding only rank r < h can still deliver exactly r
	// innovative packets downstream — it forwards the subspace it has.
	r := rand.New(rand.NewSource(6))
	const h, size = 10, 32
	src := randSource(r, h, size)
	enc, _ := NewEncoder(gf.F256, 0, src)
	rc, _ := NewRecoder(gf.F256, 0, h, size)
	for i := 0; i < 4; i++ {
		if _, err := rc.Add(enc.Packet(r)); err != nil {
			t.Fatal(err)
		}
	}
	if rc.Rank() != 4 {
		t.Fatalf("recoder rank = %d, want 4", rc.Rank())
	}
	dec, _ := NewDecoder(gf.F256, 0, h, size)
	for i := 0; i < 50 && dec.Rank() < 4; i++ {
		p, _ := rc.Packet(r)
		if _, err := dec.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if dec.Rank() != 4 {
		t.Fatalf("decoder extracted rank %d from rank-4 recoder, want 4", dec.Rank())
	}
	// And no more than 4, ever.
	for i := 0; i < 20; i++ {
		p, _ := rc.Packet(r)
		if inn, _ := dec.Add(p); inn {
			t.Fatal("decoder exceeded recoder's rank")
		}
	}
}

func TestRecoderEmptyBuffer(t *testing.T) {
	t.Parallel()
	rc, _ := NewRecoder(gf.F256, 0, 4, 16)
	r := rand.New(rand.NewSource(7))
	if _, ok := rc.Packet(r); ok {
		t.Fatal("empty recoder produced a packet")
	}
}

// TestNewRecodersShareNoRows feeds a run of recoders from NewRecoders, in
// every field, packets of their own generations in round-robin order:
// coded, systematic and redundant ones. Each must decode its own source,
// so no recoder's rows, pivots or steps spill into a neighbour's share of
// the slabs, and each must reject a packet of another generation.
func TestNewRecodersShareNoRows(t *testing.T) {
	t.Parallel()
	ids := []uint32{7, 3, 11, 4}
	for _, f := range fields {
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(9))
			const h, size = 6, 40
			rcs, err := NewRecoders(f, ids, h, size)
			if err != nil {
				t.Fatal(err)
			}
			encs := make([]*Encoder, len(ids))
			srcs := make([][][]byte, len(ids))
			for i, id := range ids {
				srcs[i] = randSource(r, h, size)
				encs[i], _ = NewEncoder(f, id, srcs[i])
				if _, ok := rcs[i].Packet(r); ok {
					t.Fatalf("recoder %d emitted before its first packet", i)
				}
			}
			for round := 0; round < 50*h; round++ {
				i := round % len(ids)
				p := encs[i].Packet(r)
				if round%5 == 0 {
					p.Release()
					p, _ = encs[i].Systematic(round / 5 % h)
				}
				if _, err := rcs[i].Add(p); err != nil {
					t.Fatal(err)
				}
				p.Release()
			}
			for i := range rcs {
				got, err := rcs[i].Decode()
				if err != nil {
					t.Fatalf("recoder %d (generation %d): %v", i, ids[i], err)
				}
				for j := range got {
					if !bytes.Equal(got[j], srcs[i][j]) {
						t.Fatalf("recoder %d decoded a corrupt packet %d", i, j)
					}
				}
				p := encs[(i+1)%len(ids)].Packet(r)
				if _, err := rcs[i].Add(p); err == nil {
					t.Fatalf("recoder %d accepted generation %d", i, p.Gen)
				}
				p.Release()
			}
		})
	}
	if _, err := NewRecoders(gf.F256, ids, 0, 16); err == nil {
		t.Fatal("NewRecoders accepted a zero generation size")
	}
}

func TestPacketMarshalRoundTrip(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(8))
			for trial := 0; trial < 20; trial++ {
				h := 1 + r.Intn(40)
				size := f.SymbolSize() * (1 + r.Intn(64))
				p := &Packet{Gen: uint32(r.Intn(1000)), Coeff: randCoeff(f, r, h), Payload: make([]byte, size)}
				r.Read(p.Payload)
				wire := p.Marshal(f)
				if len(wire) != p.WireSize(f) {
					t.Fatalf("wire length %d, WireSize %d", len(wire), p.WireSize(f))
				}
				q, err := Unmarshal(f, wire)
				if err != nil {
					t.Fatal(err)
				}
				if q.Gen != p.Gen || !bytes.Equal(q.Payload, p.Payload) {
					t.Fatal("round-trip mismatch")
				}
				if !bytes.Equal(q.Coeff, p.Coeff) {
					t.Fatalf("coeff: got %x want %x", q.Coeff, p.Coeff)
				}
			}
		})
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	t.Parallel()
	if _, err := Unmarshal(gf.F256, []byte{1, 2, 3}); err == nil {
		t.Error("short buffer accepted")
	}
	p := &Packet{Gen: 1, Coeff: []byte{1, 2}, Payload: []byte{9, 9}}
	wire := p.Marshal(gf.F256)
	if _, err := Unmarshal(gf.F256, wire[:len(wire)-1]); err == nil {
		t.Error("truncated packet accepted")
	}
	if _, err := Unmarshal(gf.F256, append(wire, 0)); err == nil {
		t.Error("overlong packet accepted")
	}
}

func TestInnovationProbabilityByField(t *testing.T) {
	t.Parallel()
	// E12 foundation: random packets over GF(2) are non-innovative with
	// noticeable probability near completion; GF(256)+ almost never.
	count := func(f gf.Field, seed int64) (waste int) {
		r := rand.New(rand.NewSource(seed))
		const h, size = 32, 32
		src := randSource(r, h, size)
		enc, _ := NewEncoder(f, 0, src)
		dec, _ := NewDecoder(f, 0, h, size)
		for !dec.Complete() {
			inn, err := dec.Add(enc.Packet(r))
			if err != nil {
				t.Fatal(err)
			}
			if !inn {
				waste++
			}
		}
		return waste
	}
	w2, w256 := 0, 0
	for s := int64(0); s < 10; s++ {
		w2 += count(gf.F2, s)
		w256 += count(gf.F256, s)
	}
	if w2 <= w256 {
		t.Errorf("GF(2) wasted %d packets vs GF(256) %d; expected GF(2) to waste more", w2, w256)
	}
	if w256 > 5 {
		t.Errorf("GF(256) wasted %d packets over 10 runs; expected near zero", w256)
	}
}

func TestFileRoundTrip(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(9))
	params := Params{Field: gf.F256, GenSize: 8, PacketSize: 64}
	for _, size := range []int{1, 100, 512, 513, 8*64 - 1, 8 * 64, 8*64 + 1, 5000} {
		content := make([]byte, size)
		r.Read(content)
		fe, err := NewFileEncoder(params, content)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		fd, err := NewFileDecoder(params, size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if fe.NumGenerations() != fd.NumGenerations() {
			t.Fatalf("generation count mismatch: %d vs %d", fe.NumGenerations(), fd.NumGenerations())
		}
		guard := 0
		for !fd.Complete() {
			if guard++; guard > 100*params.GenSize*fe.NumGenerations() {
				t.Fatalf("size %d: decode did not converge", size)
			}
			g := r.Intn(fe.NumGenerations())
			p, err := fe.Packet(g, r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fd.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		got, err := fd.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("size %d: content mismatch", size)
		}
	}
}

func TestFileDecoderProgress(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(10))
	params := Params{Field: gf.F256, GenSize: 4, PacketSize: 8}
	content := make([]byte, 4*8*3) // exactly 3 generations
	r.Read(content)
	fe, _ := NewFileEncoder(params, content)
	fd, _ := NewFileDecoder(params, len(content))
	if got := fd.Progress(); got != 0 {
		t.Fatalf("initial progress = %v, want 0", got)
	}
	if _, err := fd.Bytes(); err == nil {
		t.Fatal("Bytes() on incomplete decoder succeeded")
	}
	last := 0.0
	for !fd.Complete() {
		g := r.Intn(3)
		p, _ := fe.Packet(g, r)
		if _, err := fd.Add(p); err != nil {
			t.Fatal(err)
		}
		if pr := fd.Progress(); pr < last {
			t.Fatalf("progress went backwards: %v -> %v", last, pr)
		} else {
			last = pr
		}
	}
	if fd.Progress() != 1 {
		t.Fatalf("final progress = %v, want 1", fd.Progress())
	}
}

func TestFileDecoderRejectsBadGeneration(t *testing.T) {
	t.Parallel()
	params := Params{Field: gf.F256, GenSize: 2, PacketSize: 4}
	fd, _ := NewFileDecoder(params, 8)
	p := &Packet{Gen: 99, Coeff: []byte{1, 0}, Payload: make([]byte, 4)}
	if _, err := fd.Add(p); err == nil {
		t.Fatal("packet for out-of-range generation accepted")
	}
}

func TestParamsValidate(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"ok", Params{Field: gf.F256, GenSize: 16, PacketSize: 128}, false},
		{"nil field", Params{GenSize: 16, PacketSize: 128}, true},
		{"zero gen", Params{Field: gf.F256, GenSize: 0, PacketSize: 128}, true},
		{"huge gen", Params{Field: gf.F256, GenSize: 70000, PacketSize: 128}, true},
		{"odd gf16", Params{Field: gf.F65536, GenSize: 4, PacketSize: 3}, true},
		{"zero packet", Params{Field: gf.F256, GenSize: 4, PacketSize: 0}, true},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestOverheadBytes(t *testing.T) {
	t.Parallel()
	// GF(2) coefficients bit-pack: 32 coefficients in 4 bytes.
	if got := OverheadBytes(gf.F2, 32); got != packetHeaderLen+4 {
		t.Errorf("GF(2) overhead = %d, want %d", got, packetHeaderLen+4)
	}
	if got := OverheadBytes(gf.F256, 32); got != packetHeaderLen+32 {
		t.Errorf("GF(256) overhead = %d, want %d", got, packetHeaderLen+32)
	}
	if got := OverheadBytes(gf.F65536, 32); got != packetHeaderLen+64 {
		t.Errorf("GF(65536) overhead = %d, want %d", got, packetHeaderLen+64)
	}
}

func BenchmarkEncodePacket(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src := randSource(r, 32, 1024)
	enc, _ := NewEncoder(gf.F256, 0, src)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Packet(r)
	}
}

func BenchmarkDecodeGeneration(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const h, size = 32, 1024
	src := randSource(r, h, size)
	enc, _ := NewEncoder(gf.F256, 0, src)
	packets := make([]*Packet, h+4)
	for i := range packets {
		packets[i] = enc.Packet(r)
	}
	b.SetBytes(int64(h * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, _ := NewDecoder(gf.F256, 0, h, size)
		for _, p := range packets {
			if _, err := dec.Add(p); err != nil {
				b.Fatal(err)
			}
			if dec.Complete() {
				break
			}
		}
		if !dec.Complete() {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkRecodePacket(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const h, size = 32, 1024
	src := randSource(r, h, size)
	enc, _ := NewEncoder(gf.F256, 0, src)
	rc, _ := NewRecoder(gf.F256, 0, h, size)
	for i := 0; i < h; i++ {
		if _, err := rc.Add(enc.Packet(r)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.Packet(r)
	}
}

func TestSystematicWireRoundTrip(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(11))
			for trial := 0; trial < 20; trial++ {
				h := 1 + r.Intn(40)
				size := f.SymbolSize() * (1 + r.Intn(64))
				idx := uint16(r.Intn(h))
				unit := make([]uint16, h)
				unit[idx] = 1
				p := &Packet{
					Gen:     uint32(r.Intn(1000)),
					Coeff:   packCoeff(f, unit),
					Payload: make([]byte, size),
					Sys:     true,
					SysIdx:  idx,
				}
				r.Read(p.Payload)
				wire := p.Marshal(f)
				if len(wire) != p.WireSize(f) {
					t.Fatalf("wire length %d, WireSize %d", len(wire), p.WireSize(f))
				}
				// The systematic form is field-independent and never longer
				// than the coded form's coefficient vector.
				if want := packetHeaderLen + 2 + size; len(wire) != want {
					t.Fatalf("systematic wire length %d, want %d", len(wire), want)
				}
				q, err := Unmarshal(f, wire)
				if err != nil {
					t.Fatal(err)
				}
				if !q.Sys || q.SysIdx != idx || q.Gen != p.Gen || !bytes.Equal(q.Payload, p.Payload) {
					t.Fatalf("round-trip mismatch: sys=%v idx=%d gen=%d", q.Sys, q.SysIdx, q.Gen)
				}
				if !bytes.Equal(q.Coeff, p.Coeff) {
					t.Fatalf("coeff %x, want unit vector at %d", q.Coeff, idx)
				}
			}
		})
	}
}

func TestSystematicWireMalformed(t *testing.T) {
	t.Parallel()
	p := &Packet{Gen: 1, Coeff: []byte{0, 0, 1, 0}, Payload: []byte{1, 2, 3, 4}, Sys: true, SysIdx: 2}
	wire := p.Marshal(gf.F256)
	if _, err := Unmarshal(gf.F256, wire[:len(wire)-1]); err == nil {
		t.Error("truncated systematic packet accepted")
	}
	// Index >= coefficient count must be rejected.
	bad := append([]byte(nil), wire...)
	bad[packetHeaderLen], bad[packetHeaderLen+1] = 0, 9
	if _, err := Unmarshal(gf.F256, bad); err == nil {
		t.Error("out-of-range systematic index accepted")
	}
}

// TestCodedWireGolden pins the coded-packet encoding byte-for-byte: the
// systematic flag lives in a header bit that was always zero before, so
// non-systematic frames must be unchanged across the feature.
func TestCodedWireGolden(t *testing.T) {
	t.Parallel()
	p := &Packet{Gen: 0x01020304, Coeff: []byte{0xAA, 0, 0x0B}, Payload: []byte{0xDE, 0xAD}}
	want := []byte{
		0x01, 0x02, 0x03, 0x04, // generation
		0x00, 0x03, // coefficient count
		0x00, 0x00, 0x00, 0x02, // payload length, bit 31 clear
		0xAA, 0x00, 0x0B, // coefficients, 1B each over GF(2^8)
		0xDE, 0xAD, // payload
	}
	if got := p.Marshal(gf.F256); !bytes.Equal(got, want) {
		t.Fatalf("coded wire encoding changed:\n got %x\nwant %x", got, want)
	}
	sys := &Packet{Gen: 0x01020304, Coeff: []byte{0, 1, 0}, Payload: []byte{0xDE, 0xAD}, Sys: true, SysIdx: 1}
	wantSys := []byte{
		0x01, 0x02, 0x03, 0x04, // generation
		0x00, 0x03, // coefficient count
		0x80, 0x00, 0x00, 0x02, // payload length with systematic flag
		0x00, 0x01, // source index
		0xDE, 0xAD, // payload
	}
	if got := sys.Marshal(gf.F256); !bytes.Equal(got, wantSys) {
		t.Fatalf("systematic wire encoding:\n got %x\nwant %x", got, wantSys)
	}
	// GF(2) packs coefficient i into bit i%8 of byte i/8; h = 9 crosses
	// into a second byte.
	bits := &Packet{Gen: 5, Coeff: []byte{1, 0, 1, 1, 0, 0, 0, 1, 1}, Payload: []byte{0xDE, 0xAD}}
	wantBits := []byte{
		0x00, 0x00, 0x00, 0x05, // generation
		0x00, 0x09, // coefficient count
		0x00, 0x00, 0x00, 0x02, // payload length
		0x8D, 0x01, // coefficients 0,2,3,7 | 8
		0xDE, 0xAD, // payload
	}
	if got := bits.Marshal(gf.F2); !bytes.Equal(got, wantBits) {
		t.Fatalf("GF(2) wire encoding:\n got %x\nwant %x", got, wantBits)
	}
	// GF(2^16) coefficients are little-endian in memory, big-endian on
	// the wire.
	wide := &Packet{Gen: 6, Coeff: packCoeff(gf.F65536, []uint16{0xABCD, 0x0001, 0x1200}), Payload: []byte{0xDE, 0xAD, 0xBE, 0xEF}}
	wantWide := []byte{
		0x00, 0x00, 0x00, 0x06, // generation
		0x00, 0x03, // coefficient count
		0x00, 0x00, 0x00, 0x04, // payload length
		0xAB, 0xCD, 0x00, 0x01, 0x12, 0x00, // coefficients, 2B big-endian
		0xDE, 0xAD, 0xBE, 0xEF, // payload
	}
	if got := wide.Marshal(gf.F65536); !bytes.Equal(got, wantWide) {
		t.Fatalf("GF(2^16) wire encoding:\n got %x\nwant %x", got, wantWide)
	}
	for _, c := range []struct {
		f    gf.Field
		p    *Packet
		wire []byte
	}{{gf.F256, p, want}, {gf.F2, bits, wantBits}, {gf.F65536, wide, wantWide}} {
		q, err := Unmarshal(c.f, c.wire)
		if err != nil {
			t.Fatalf("%s: %v", c.f.Name(), err)
		}
		if !bytes.Equal(q.Coeff, c.p.Coeff) || !bytes.Equal(q.Payload, c.p.Payload) {
			t.Fatalf("%s: golden decodes to %x %x", c.f.Name(), q.Coeff, q.Payload)
		}
	}
}

// TestSystematicFastPathMixed drives a decoder with every arrival mix the
// fast path must survive: systematic-first (the loss-free case), coded
// rows before their systematic duplicates (slot-filled fallback), repeated
// systematic packets, and a hand-built packet whose stale Coeff disagrees
// with SysIdx (stage must trust the index, not the vector).
func TestSystematicFastPathMixed(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(21))
	const h, size = 8, 64
	src := make([][]byte, h)
	for i := range src {
		src[i] = make([]byte, size)
		r.Read(src[i])
	}
	enc, err := NewEncoder(gf.F256, 7, src)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("loss-free", func(t *testing.T) {
		dec, _ := NewDecoder(gf.F256, 7, h, size)
		for i := 0; i < h; i++ {
			p, _ := enc.Systematic(i)
			inn, err := dec.Add(p)
			p.Release()
			if err != nil || !inn {
				t.Fatalf("systematic %d: innovative=%v err=%v", i, inn, err)
			}
		}
		got, err := dec.Source()
		if err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if !bytes.Equal(got[i], src[i]) {
				t.Fatalf("source %d mismatch", i)
			}
		}
	})

	t.Run("coded-then-systematic", func(t *testing.T) {
		dec, _ := NewDecoder(gf.F256, 7, h, size)
		for dec.Rank() < h/2 {
			p := enc.Packet(r)
			if _, err := dec.Add(p); err != nil {
				t.Fatal(err)
			}
			p.Release()
		}
		for i := 0; i < h; i++ {
			p, _ := enc.Systematic(i)
			if _, err := dec.Add(p); err != nil {
				t.Fatal(err)
			}
			p.Release()
			// Duplicate systematic must be absorbed as redundant.
			q, _ := enc.Systematic(i)
			inn, err := dec.Add(q)
			q.Release()
			if err != nil {
				t.Fatal(err)
			}
			if inn {
				t.Fatalf("duplicate systematic %d reported innovative", i)
			}
		}
		got, err := dec.Source()
		if err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if !bytes.Equal(got[i], src[i]) {
				t.Fatalf("source %d mismatch", i)
			}
		}
	})

	t.Run("stale-coeff-ignored", func(t *testing.T) {
		dec, _ := NewDecoder(gf.F256, 7, h, size)
		p := &Packet{Gen: 7, Coeff: make([]byte, h), Payload: append([]byte(nil), src[3]...), Sys: true, SysIdx: 3}
		p.Coeff[0] = 0xAA // lies; stage must rebuild the unit vector from SysIdx
		if inn, err := dec.Add(p); err != nil || !inn {
			t.Fatalf("innovative=%v err=%v", inn, err)
		}
		for i := 0; i < h; i++ {
			if i == 3 {
				continue
			}
			q, _ := enc.Systematic(i)
			if _, err := dec.Add(q); err != nil {
				t.Fatal(err)
			}
			q.Release()
		}
		got, err := dec.Source()
		if err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if !bytes.Equal(got[i], src[i]) {
				t.Fatalf("source %d mismatch", i)
			}
		}
	})

	t.Run("out-of-range-idx", func(t *testing.T) {
		dec, _ := NewDecoder(gf.F256, 7, h, size)
		p := &Packet{Gen: 7, Coeff: make([]byte, h), Payload: make([]byte, size), Sys: true, SysIdx: h}
		if _, err := dec.Add(p); err == nil {
			t.Fatal("out-of-range systematic index accepted")
		}
	})
}
