package rlnc

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"ncast/internal/gf"
)

// fields under test for the wire/pipeline properties.
var fastpathFields = []gf.Field{gf.F2, gf.F256, gf.F65536}

func randomPacket(t testing.TB, f gf.Field, r *rand.Rand, gen uint32, h, size int) *Packet {
	t.Helper()
	p := &Packet{Gen: gen, Coeff: randCoeff(f, r, h), Payload: make([]byte, size)}
	r.Read(p.Payload)
	return p
}

// TestAppendToMatchesMarshal pins AppendTo as the single encoder: it must
// produce Marshal's exact bytes, append after existing content without
// touching it, and round-trip through Unmarshal.
func TestAppendToMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, f := range fastpathFields {
		for _, h := range []int{1, 7, 8, 9, 16} {
			p := randomPacket(t, f, r, 3, h, 64*f.SymbolSize())
			want := p.Marshal(f)
			prefix := []byte("prefix")
			got := p.AppendTo(append([]byte(nil), prefix...), f)
			if !bytes.HasPrefix(got, prefix) {
				t.Fatalf("%s h=%d: AppendTo clobbered existing bytes", f.Name(), h)
			}
			if !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%s h=%d: AppendTo differs from Marshal", f.Name(), h)
			}
			if len(want) != p.WireSize(f) {
				t.Fatalf("%s h=%d: WireSize %d, marshalled %d", f.Name(), h, p.WireSize(f), len(want))
			}
			q, err := Unmarshal(f, want)
			if err != nil {
				t.Fatalf("%s h=%d: Unmarshal: %v", f.Name(), h, err)
			}
			if !bytes.Equal(q.Coeff, p.Coeff) {
				t.Fatalf("%s h=%d: coeff mismatch", f.Name(), h)
			}
			if !bytes.Equal(q.Payload, p.Payload) {
				t.Fatalf("%s h=%d: payload mismatch", f.Name(), h)
			}
			q.Release()
		}
	}
}

// TestPooledPacketRecycled verifies that Release/getPacket reuse buffers
// of matching shape and that recycled packets come back zeroed.
func TestPooledPacketRecycled(t *testing.T) {
	p := getPacket(1, 16, 128)
	for i := range p.row {
		p.row[i] = 0xFF
	}
	p.Release()
	q := getPacket(2, 16, 128)
	if q.Gen != 2 {
		t.Fatalf("gen = %d, want 2", q.Gen)
	}
	if len(q.Payload) != 128 || len(q.Coeff) != 16 {
		t.Fatalf("shape %d+%d, want 128+16", len(q.Payload), len(q.Coeff))
	}
	// The row holds payload, coefficients and padding; all must be zero.
	for i, b := range q.row {
		if b != 0 {
			t.Fatalf("recycled row[%d] = %#x, want 0", i, b)
		}
	}
	q.Release()
}

// TestEmitPathsZeroAlloc asserts the steady-state budget: with warm
// pools, Encoder.Packet and Recoder.Packet (emit + release), a redundant
// Recoder.Add and a redundant Recoder.Absorb, recoding or not, run
// without allocating.
func TestEmitPathsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	r := rand.New(rand.NewSource(11))
	const h, size = 16, 1024
	src := make([][]byte, h)
	for i := range src {
		src[i] = make([]byte, size)
		r.Read(src[i])
	}
	enc, err := NewEncoder(gf.F256, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRecoder(gf.F256, 0, h, size)
	if err != nil {
		t.Fatal(err)
	}
	for rc.Rank() < h {
		p := enc.Packet(r)
		if _, err := rc.Add(p); err != nil {
			t.Fatal(err)
		}
		p.Release()
	}

	if n := testing.AllocsPerRun(100, func() {
		p := enc.Packet(r)
		p.Release()
	}); n != 0 {
		t.Errorf("Encoder.Packet: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		p, ok := rc.Packet(r)
		if !ok {
			t.Fatal("recoder empty")
		}
		p.Release()
	}); n != 0 {
		t.Errorf("Recoder.Packet: %v allocs/op, want 0", n)
	}
	// A full-rank recoder treats every further packet as redundant: the
	// flood steady state. It must absorb it without allocating.
	redundant, _ := rc.Packet(r)
	defer redundant.Release()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := rc.Add(redundant); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("redundant Recoder.Add: %v allocs/op, want 0", n)
	}
	// A relay's per-packet step: absorb the redundant packet and recode
	// one for the child. The recoded packet comes from the pool and goes
	// back to it, so the step allocates nothing either.
	if n := testing.AllocsPerRun(100, func() {
		_, _, _, out, err := rc.Absorb(redundant, r)
		if err != nil || out == nil {
			t.Fatalf("Absorb: out %v, err %v", out, err)
		}
		out.Release()
	}); n != 0 {
		t.Errorf("redundant Recoder.Absorb with recode: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, _, err := rc.Absorb(redundant, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("redundant Recoder.Absorb without recode: %v allocs/op, want 0", n)
	}
}

// TestParallelFileDecoderRoundTrip drives the worker pool end to end over
// every field and a worker count exceeding the generation count.
func TestParallelFileDecoderRoundTrip(t *testing.T) {
	for _, f := range fastpathFields {
		for _, workers := range []int{1, 3, 8} {
			r := rand.New(rand.NewSource(int64(13 + workers)))
			params := Params{Field: f, GenSize: 8, PacketSize: 64 * f.SymbolSize()}
			content := make([]byte, 5*params.genBytes()-17)
			r.Read(content)
			fe, err := NewFileEncoder(params, content)
			if err != nil {
				t.Fatal(err)
			}
			pd, err := NewParallelFileDecoder(params, len(content), workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			for !pd.Complete() {
				g := r.Intn(fe.NumGenerations())
				p, err := fe.Packet(g, r)
				if err != nil {
					t.Fatal(err)
				}
				if err := pd.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			pd.Close()
			got, err := pd.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content) {
				t.Fatalf("%s workers=%d: decoded content differs", f.Name(), workers)
			}
			if pd.Progress() != 1 {
				t.Fatalf("%s workers=%d: progress %v, want 1", f.Name(), workers, pd.Progress())
			}
		}
	}
}

// TestParallelFileDecoderLifecycle pins the Close/Bytes/Add ordering
// contract and generation range checking.
func TestParallelFileDecoderLifecycle(t *testing.T) {
	params := Params{Field: gf.F256, GenSize: 4, PacketSize: 32}
	pd, err := NewParallelFileDecoder(params, 2*params.genBytes(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Bytes(); err == nil {
		t.Fatal("Bytes before Close succeeded")
	}
	if err := pd.Add(&Packet{Gen: 99, Coeff: make([]byte, 4), Payload: make([]byte, 32)}); err == nil {
		t.Fatal("out-of-range generation accepted")
	}
	pd.Close()
	pd.Close() // idempotent
	if err := pd.Add(&Packet{Gen: 0, Coeff: make([]byte, 4), Payload: make([]byte, 32)}); err == nil {
		t.Fatal("Add after Close succeeded")
	}
	if _, err := pd.Bytes(); err == nil {
		t.Fatal("Bytes of incomplete decode succeeded")
	}
}

// benchContent builds deterministic content of n generations.
func benchContent(params Params, gens int) []byte {
	content := make([]byte, gens*params.genBytes())
	rand.New(rand.NewSource(1)).Read(content)
	return content
}

// feedPackets pre-generates enough coded packets to decode every
// generation with high probability (rank + slack per generation).
func feedPackets(b *testing.B, fe *FileEncoder, params Params, gens int) []*Packet {
	b.Helper()
	r := rand.New(rand.NewSource(2))
	perGen := params.GenSize + 2
	pkts := make([]*Packet, 0, gens*perGen)
	for g := 0; g < gens; g++ {
		for i := 0; i < perGen; i++ {
			p, err := fe.Packet(g, r)
			if err != nil {
				b.Fatal(err)
			}
			pkts = append(pkts, p.Clone())
			p.Release()
		}
	}
	return pkts
}

const benchGens = 8

func benchParams() Params {
	return Params{Field: gf.F256, GenSize: 16, PacketSize: 1024}
}

// BenchmarkFileDecodeSerial decodes a multi-generation blob on the
// calling goroutine — the baseline for the worker-pool speedup.
func BenchmarkFileDecodeSerial(b *testing.B) {
	params := benchParams()
	content := benchContent(params, benchGens)
	fe, err := NewFileEncoder(params, content)
	if err != nil {
		b.Fatal(err)
	}
	pkts := feedPackets(b, fe, params, benchGens)
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd, err := NewFileDecoder(params, len(content))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pkts {
			if fd.Complete() {
				break
			}
			if _, err := fd.Add(p); err != nil {
				b.Fatal(err)
			}
		}
		if !fd.Complete() {
			b.Fatal("incomplete decode")
		}
	}
}

// BenchmarkFileDecodeParallel decodes the same blob through the worker
// pool at GOMAXPROCS workers (capped by generations).
func BenchmarkFileDecodeParallel(b *testing.B) {
	params := benchParams()
	content := benchContent(params, benchGens)
	fe, err := NewFileEncoder(params, content)
	if err != nil {
		b.Fatal(err)
	}
	pkts := feedPackets(b, fe, params, benchGens)
	workers := min(runtime.GOMAXPROCS(0), benchGens)
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Clone the feed outside the timed region: Add takes ownership,
		// but the copies are harness bookkeeping, not decode work.
		b.StopTimer()
		feed := make([]*Packet, len(pkts))
		for j, p := range pkts {
			feed[j] = p.ClonePooled()
		}
		b.StartTimer()
		pd, err := NewParallelFileDecoder(params, len(content), workers, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range feed {
			if err := pd.Add(p); err != nil {
				b.Fatal(err)
			}
		}
		pd.Close()
		if !pd.Complete() {
			b.Fatal("incomplete decode")
		}
	}
}

// BenchmarkEncoderPacketPooled measures the steady-state emit path;
// allocs/op is the acceptance metric (0 with warm pools).
func BenchmarkEncoderPacketPooled(b *testing.B) {
	params := benchParams()
	r := rand.New(rand.NewSource(3))
	src := make([][]byte, params.GenSize)
	for i := range src {
		src[i] = make([]byte, params.PacketSize)
		r.Read(src[i])
	}
	enc, err := NewEncoder(params.Field, 0, src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(params.PacketSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := enc.Packet(r)
		p.Release()
	}
}

// BenchmarkRecoderPacketPooled measures the steady-state re-mix path of a
// full-rank recoder; allocs/op is the acceptance metric.
func BenchmarkRecoderPacketPooled(b *testing.B) {
	params := benchParams()
	r := rand.New(rand.NewSource(4))
	src := make([][]byte, params.GenSize)
	for i := range src {
		src[i] = make([]byte, params.PacketSize)
		r.Read(src[i])
	}
	enc, err := NewEncoder(params.Field, 0, src)
	if err != nil {
		b.Fatal(err)
	}
	rc, err := NewRecoder(params.Field, 0, params.GenSize, params.PacketSize)
	if err != nil {
		b.Fatal(err)
	}
	for rc.Rank() < params.GenSize {
		p := enc.Packet(r)
		if _, err := rc.Add(p); err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
	b.SetBytes(int64(params.PacketSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := rc.Packet(r)
		if !ok {
			b.Fatal("recoder empty")
		}
		p.Release()
	}
}

// BenchmarkRecoderAddRedundant measures absorbing a non-innovative packet
// — the flood steady state — which must not allocate.
func BenchmarkRecoderAddRedundant(b *testing.B) {
	params := benchParams()
	r := rand.New(rand.NewSource(5))
	src := make([][]byte, params.GenSize)
	for i := range src {
		src[i] = make([]byte, params.PacketSize)
		r.Read(src[i])
	}
	enc, err := NewEncoder(params.Field, 0, src)
	if err != nil {
		b.Fatal(err)
	}
	rc, err := NewRecoder(params.Field, 0, params.GenSize, params.PacketSize)
	if err != nil {
		b.Fatal(err)
	}
	for rc.Rank() < params.GenSize {
		p := enc.Packet(r)
		if _, err := rc.Add(p); err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
	p := enc.Packet(r)
	defer p.Release()
	b.SetBytes(int64(params.PacketSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rc.Add(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterleavedAbsorb measures a relay's elimination with many
// generations open at once, as a node sees them: 256 generations of
// 16 × 1 KiB rows over GF(2^8), 20 coded packets each (the last 4
// redundant) arriving round-robin, so the arenas do not stay in cache.
// "recode" also emits one packet per absorb, as a forwarding node does.
func BenchmarkInterleavedAbsorb(b *testing.B) {
	const gens, h, size = 256, 16, 1024
	r := rand.New(rand.NewSource(6))
	var pkts []*Packet
	encs := make([]*Encoder, gens)
	for g := range encs {
		encs[g], _ = NewEncoder(gf.F256, uint32(g), randSource(r, h, size))
	}
	for k := 0; k < h+4; k++ {
		for _, enc := range encs {
			pkts = append(pkts, enc.Packet(r))
		}
	}
	for _, recode := range []bool{false, true} {
		name, rr := "norecode", (*rand.Rand)(nil)
		if recode {
			name, rr = "recode", r
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(size)
			for n := 0; n < b.N; {
				rcs := make([]*Recoder, gens)
				for g := range rcs {
					rcs[g], _ = NewRecoder(gf.F256, uint32(g), h, size)
				}
				for _, p := range pkts {
					if n++; n > b.N {
						break
					}
					_, _, _, out, _ := rcs[p.Gen].Absorb(p, rr)
					out.Release()
				}
			}
		})
	}
}
