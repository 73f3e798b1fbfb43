package rlnc

import (
	"bytes"
	"math/rand"
	"testing"

	"ncast/internal/gf"
)

func layeredParams(layers int) LayeredParams {
	weights := make([]float64, layers)
	// Classic priority weighting: layer l gets weight 2^(L-1-l).
	w := 1 << (layers - 1)
	for l := range weights {
		weights[l] = float64(w)
		w /= 2
		if w == 0 {
			w = 1
		}
	}
	return LayeredParams{
		Params:  Params{Field: gf.F256, GenSize: 4, PacketSize: 16},
		Weights: weights,
	}
}

func TestLayeredParamsValidate(t *testing.T) {
	t.Parallel()
	ok := layeredParams(3)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.Weights = nil
	if err := bad.Validate(); err == nil {
		t.Error("no layers accepted")
	}
	bad = ok
	bad.Weights = []float64{1, 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero weight accepted")
	}
	bad = ok
	bad.Params.GenSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad base params accepted")
	}
}

func TestLayerNamespace(t *testing.T) {
	t.Parallel()
	g := LayerGen(3, 12345)
	if LayerOf(g) != 3 || GenOf(g) != 12345 {
		t.Fatalf("namespace round trip: layer %d gen %d", LayerOf(g), GenOf(g))
	}
	if LayerOf(LayerGen(0, 7)) != 0 {
		t.Fatal("base layer mangled")
	}
}

// layerDecoders returns one FileDecoder per layer of enc, as a receiver
// that knows the layer sizes builds them.
func layerDecoders(t *testing.T, enc *LayeredEncoder, params LayeredParams) []*FileDecoder {
	t.Helper()
	decs := make([]*FileDecoder, enc.Layers())
	for l := range decs {
		fd, err := NewFileDecoder(params.Params, enc.LayerSize(l))
		if err != nil {
			t.Fatal(err)
		}
		decs[l] = fd
	}
	return decs
}

// addLayered feeds a layered packet to its layer's decoder, under its
// within-layer generation index.
func addLayered(t *testing.T, decs []*FileDecoder, p *Packet) {
	t.Helper()
	q := *p
	q.Gen = uint32(GenOf(p.Gen))
	if _, err := decs[LayerOf(p.Gen)].Add(&q); err != nil {
		t.Fatal(err)
	}
}

// layersComplete returns how many consecutive layers, from the base,
// have decoded.
func layersComplete(decs []*FileDecoder) int {
	n := 0
	for _, d := range decs {
		if !d.Complete() {
			break
		}
		n++
	}
	return n
}

// layeredBytes reassembles the content from fully decoded layers.
func layeredBytes(t *testing.T, decs []*FileDecoder) []byte {
	t.Helper()
	var out []byte
	for _, d := range decs {
		b, err := d.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

func TestLayeredRoundTrip(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(1))
	content := make([]byte, 500)
	r.Read(content)
	params := layeredParams(3)
	enc, err := NewLayeredEncoder(params, content)
	if err != nil {
		t.Fatal(err)
	}
	decs := layerDecoders(t, enc, params)
	guard := 0
	for layersComplete(decs) < len(decs) {
		if guard++; guard > 100000 {
			t.Fatal("decode did not converge")
		}
		p, err := enc.Packet(r)
		if err != nil {
			t.Fatal(err)
		}
		addLayered(t, decs, p)
	}
	if got := layeredBytes(t, decs); !bytes.Equal(got, content) {
		t.Fatal("layered content mismatch")
	}
	// Per-layer extraction matches the slabs.
	per := (len(content) + 2) / 3
	for l := 0; l < 3; l++ {
		want := content[l*per : min((l+1)*per, len(content))]
		if enc.LayerSize(l) != len(want) {
			t.Fatalf("layer %d size %d, want %d", l, enc.LayerSize(l), len(want))
		}
		lb, err := decs[l].Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lb, want) {
			t.Fatalf("layer %d mismatch", l)
		}
	}
}

func TestLayeredGracefulDegradation(t *testing.T) {
	t.Parallel()
	// The §5 claim: a receiver that only gets a fraction of the stream
	// should complete the base layer well before the enhancement layers.
	// Feed a fixed budget of packets and check completion order.
	r := rand.New(rand.NewSource(2))
	content := make([]byte, 3000)
	r.Read(content)
	params := layeredParams(3) // weights 4:2:1
	enc, err := NewLayeredEncoder(params, content)
	if err != nil {
		t.Fatal(err)
	}
	trials, baseFirst := 30, 0
	for trial := 0; trial < trials; trial++ {
		decs := layerDecoders(t, enc, params)
		// Stop as soon as ANY layer completes; it should almost always
		// be the base.
		for !decs[0].Complete() && !decs[1].Complete() && !decs[2].Complete() {
			p, err := enc.Packet(r)
			if err != nil {
				t.Fatal(err)
			}
			addLayered(t, decs, p)
		}
		if decs[0].Complete() {
			baseFirst++
		}
	}
	if baseFirst < trials*3/4 {
		t.Fatalf("base layer finished first in only %d/%d trials", baseFirst, trials)
	}
}

func TestLayeredThroughRecoder(t *testing.T) {
	t.Parallel()
	// Layered packets must flow through ordinary recoders unchanged: the
	// namespace lives entirely in the Gen field.
	r := rand.New(rand.NewSource(3))
	content := make([]byte, 400)
	r.Read(content)
	params := layeredParams(2)
	enc, err := NewLayeredEncoder(params, content)
	if err != nil {
		t.Fatal(err)
	}
	decs := layerDecoders(t, enc, params)
	recoders := make(map[uint32]*Recoder)
	guard := 0
	for layersComplete(decs) < len(decs) {
		if guard++; guard > 100000 {
			t.Fatal("no convergence through recoder")
		}
		p, err := enc.Packet(r)
		if err != nil {
			t.Fatal(err)
		}
		rc, ok := recoders[p.Gen]
		if !ok {
			rc, err = NewRecoder(params.Params.Field, p.Gen, params.Params.GenSize, params.Params.PacketSize)
			if err != nil {
				t.Fatal(err)
			}
			recoders[p.Gen] = rc
		}
		if _, err := rc.Add(p); err != nil {
			t.Fatal(err)
		}
		if out, ok := rc.Packet(r); ok {
			if out.Gen != p.Gen {
				t.Fatalf("recoded packet of %#x carries %#x", p.Gen, out.Gen)
			}
			addLayered(t, decs, out)
		}
	}
	if got := layeredBytes(t, decs); !bytes.Equal(got, content) {
		t.Fatal("recoded layered content mismatch")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
