package rlnc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ncast/internal/gf"
)

// TestQuickEncodeDecodeRoundTrip fuzzes the codec across quick-generated
// parameter combinations: any (field, h, payload size) must round-trip.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	fields := []gf.Field{gf.F2, gf.F256, gf.F65536}
	prop := func(seed int64, fRaw, hRaw, szRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		f := fields[int(fRaw)%len(fields)]
		h := 1 + int(hRaw)%24
		size := f.SymbolSize() * (1 + int(szRaw)%48)
		src := make([][]byte, h)
		for i := range src {
			src[i] = make([]byte, size)
			r.Read(src[i])
		}
		enc, err := NewEncoder(f, 9, src)
		if err != nil {
			return false
		}
		dec, err := NewDecoder(f, 9, h, size)
		if err != nil {
			return false
		}
		for n := 0; !dec.Complete(); n++ {
			if n > 60*h {
				t.Logf("no convergence: %s h=%d", f.Name(), h)
				return false
			}
			if _, err := dec.Add(enc.Packet(r)); err != nil {
				return false
			}
		}
		got, err := dec.Source()
		if err != nil {
			return false
		}
		for i := range src {
			if !bytes.Equal(got[i], src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickWireRoundTrip fuzzes Marshal/Unmarshal.
func TestQuickWireRoundTrip(t *testing.T) {
	t.Parallel()
	fields := []gf.Field{gf.F2, gf.F256, gf.F65536}
	prop := func(seed int64, fRaw, hRaw, szRaw uint8, gen uint32) bool {
		r := rand.New(rand.NewSource(seed))
		f := fields[int(fRaw)%len(fields)]
		h := 1 + int(hRaw)%64
		size := f.SymbolSize() * (1 + int(szRaw)%64)
		p := &Packet{Gen: gen, Coeff: randCoeff(f, r, h), Payload: make([]byte, size)}
		r.Read(p.Payload)
		q, err := Unmarshal(f, p.Marshal(f))
		if err != nil {
			return false
		}
		return q.Gen == p.Gen && bytes.Equal(q.Payload, p.Payload) && bytes.Equal(q.Coeff, p.Coeff)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickRecoderPreservesSubspace: whatever subset of coded packets a
// recoder holds, its outputs never let a decoder exceed the recoder's own
// rank, and always let it reach that rank.
func TestQuickRecoderPreservesSubspace(t *testing.T) {
	t.Parallel()
	prop := func(seed int64, feedRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		const h, size = 12, 24
		src := make([][]byte, h)
		for i := range src {
			src[i] = make([]byte, size)
			r.Read(src[i])
		}
		enc, err := NewEncoder(gf.F256, 0, src)
		if err != nil {
			return false
		}
		rc, err := NewRecoder(gf.F256, 0, h, size)
		if err != nil {
			return false
		}
		feed := 1 + int(feedRaw)%h
		for i := 0; i < feed; i++ {
			if _, err := rc.Add(enc.Packet(r)); err != nil {
				return false
			}
		}
		want := rc.Rank()
		dec, err := NewDecoder(gf.F256, 0, h, size)
		if err != nil {
			return false
		}
		for i := 0; i < 30*h; i++ {
			p, ok := rc.Packet(r)
			if !ok {
				return false
			}
			if _, err := dec.Add(p); err != nil {
				return false
			}
			if dec.Rank() == want {
				break
			}
		}
		return dec.Rank() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLayeredPacket(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	content := make([]byte, 64<<10)
	r.Read(content)
	enc, err := NewLayeredEncoder(LayeredParams{
		Params:  Params{Field: gf.F256, GenSize: 16, PacketSize: 1024},
		Weights: []float64{4, 2, 1},
	}, content)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Packet(r); err != nil {
			b.Fatal(err)
		}
	}
}
