package rlnc

import (
	"fmt"
	"math/rand"
	"sync"

	"ncast/internal/gf"
	"ncast/internal/obs"
)

// Encoder produces coded packets for one generation of source data. It is
// the role of the broadcast server, which holds the original packets.
type Encoder struct {
	f    gf.Field
	gen  uint32
	src  [][]byte
	size int
}

// NewEncoder wraps h equal-length source packets as generation gen.
// The source slices are retained, not copied; callers must not mutate them
// afterwards.
func NewEncoder(f gf.Field, gen uint32, src [][]byte) (*Encoder, error) {
	if len(src) == 0 || len(src) > 65535 {
		return nil, fmt.Errorf("rlnc: generation size %d out of range [1,65535]", len(src))
	}
	size := len(src[0])
	if size == 0 || size%f.SymbolSize() != 0 {
		return nil, fmt.Errorf("rlnc: source packet size %d invalid for %s", size, f.Name())
	}
	for i, s := range src {
		if len(s) != size {
			return nil, fmt.Errorf("rlnc: source packet %d has size %d, want %d", i, len(s), size)
		}
	}
	return &Encoder{f: f, gen: gen, src: src, size: size}, nil
}

// Packet emits a fresh uniformly random linear combination of the
// generation's source packets. The returned packet is pooled; Release it
// when done to keep the emit path allocation-free.
func (e *Encoder) Packet(r *rand.Rand) *Packet {
	p := getPacket(e.gen, len(e.src)*e.f.SymbolSize(), e.size)
	var d gf.Dot
	d.Reset(e.f, p.Payload)
	for i, s := range e.src {
		c := e.f.Rand(r)
		if c != 0 {
			setCoeff(e.f, p.Coeff, i, c)
			d.Add(s, c)
		}
	}
	d.Flush()
	return p
}

// Systematic emits source packet i uncoded (unit coefficient vector).
// Useful to seed decoders cheaply before switching to random coding.
// The returned packet is pooled; Release it when done.
func (e *Encoder) Systematic(i int) (*Packet, error) {
	if i < 0 || i >= len(e.src) {
		return nil, fmt.Errorf("rlnc: systematic index %d out of range [0,%d)", i, len(e.src))
	}
	p := getPacket(e.gen, len(e.src)*e.f.SymbolSize(), e.size)
	setCoeff(e.f, p.Coeff, i, 1)
	p.Sys, p.SysIdx = true, uint16(i)
	copy(p.Payload, e.src[i])
	return p, nil
}

// codec is one generation's elimination engine behind a mutex, with
// optional instrumentation: the whole of Decoder and Recoder, and the
// per-generation element of FileDecoder and ParallelFileDecoder. All
// methods are safe for concurrent use; a node with several decode
// workers adds, emits and reads rank on one recoder from different
// goroutines.
type codec struct {
	mu  sync.Mutex
	gen uint32
	e   genDecoder
	// m, when set, counts generations closed. A codec never reads the
	// clock.
	m *obs.CodecMetrics
}

func (c *codec) init(p Params, gen uint32, m *obs.CodecMetrics) {
	c.gen, c.m = gen, m
	c.e = newGenDecoder(p.Field, p.GenSize, p.PacketSize)
}

// Instrument attaches obs metrics; a nil bundle leaves the codec
// uninstrumented. Callers must serialise with Add (the protocol layer
// instruments a recoder at creation, before any packet arrives).
func (c *codec) Instrument(m *obs.CodecMetrics) {
	c.mu.Lock()
	c.m = m
	c.mu.Unlock()
}

// add eliminates p in one locked section. closed reports that this
// packet brought the generation to full rank; back-substitution has then
// already run, so the source packets are readable when add returns.
func (c *codec) add(p *Packet) (innovative, closed bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addLocked(p)
}

// addLocked is add for a caller that holds c.mu: the package's one path
// from a packet into the engine.
func (c *codec) addLocked(p *Packet) (innovative, closed bool, err error) {
	if p.Gen != c.gen {
		return false, false, fmt.Errorf("rlnc: packet for generation %d, want %d", p.Gen, c.gen)
	}
	innovative, err = c.e.add(p)
	closed = innovative && c.e.complete()
	if closed {
		c.m.Closed()
	}
	return innovative, closed, err
}

// Add absorbs a coded packet, reporting whether it was innovative
// (raised the rank). Packets for other generations are rejected with an
// error. The packet is only read; the caller keeps ownership.
func (c *codec) Add(p *Packet) (innovative bool, err error) {
	innovative, _, err = c.add(p)
	return innovative, err
}

// Rank returns the number of linearly independent packets received.
func (c *codec) Rank() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.e.rank
}

// Complete reports whether the generation is decoded.
func (c *codec) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.e.complete()
}

func (c *codec) source() ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.e.source()
}

// Decoder recovers one generation by progressive Gaussian elimination.
type Decoder struct{ codec }

// NewDecoder creates a decoder for generation gen with h source packets of
// the given payload size.
func NewDecoder(f gf.Field, gen uint32, h, size int) (*Decoder, error) {
	p := Params{Field: f, GenSize: h, PacketSize: size}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := new(Decoder)
	d.init(p, gen, nil)
	return d, nil
}

// Source returns the decoded source packets; it errors until Complete.
// The returned slices alias decoder state; callers must not modify them.
func (d *Decoder) Source() ([][]byte, error) { return d.source() }

// Recoder is the buffer-and-mix element run by every overlay node: it
// stores the innovative packets seen so far (in echelon form) and emits
// fresh random combinations of them. A recoder never needs the source
// data, only coded packets, and its output is statistically equivalent to
// fresh encodings of the subspace it has received — the key property of
// practical network coding.
type Recoder struct{ codec }

// NewRecoder creates a recoder for generation gen.
func NewRecoder(f gf.Field, gen uint32, h, size int) (*Recoder, error) {
	p := Params{Field: f, GenSize: h, PacketSize: size}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rc := new(Recoder)
	rc.init(p, gen, nil)
	return rc, nil
}

// NewRecoders creates one recoder per id, each as NewRecoder would make
// it, in one slice. Their arenas, pivot maps and step logs are carved now
// from three allocations they share, where NewRecoder's recoder allocates
// its own three on its first packet: a node that starts generations a run
// at a time pays four allocations per run instead of four per generation.
func NewRecoders(f gf.Field, ids []uint32, h, size int) ([]Recoder, error) {
	p := Params{Field: f, GenSize: h, PacketSize: size}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rcs := make([]Recoder, len(ids))
	if len(ids) == 0 {
		return rcs, nil
	}
	rows := h * rowStride(h*f.SymbolSize(), size)
	arena := make([]byte, len(ids)*rows)
	pivots := make([]int32, len(ids)*h)
	steps := make([]elimStep, len(ids)*h)
	for i, id := range ids {
		rc := &rcs[i]
		rc.init(p, id, nil)
		a, b := i*rows, (i+1)*rows
		c, d := i*h, (i+1)*h
		rc.e.carve(arena[a:b:b], pivots[c:d:d], steps[c:d:d])
	}
	return rcs, nil
}

// Packet emits a random combination of the buffered packets. It returns
// false when the buffer is empty. The returned packet is pooled; Release
// it when done to keep the emit path allocation-free.
func (rc *Recoder) Packet(r *rand.Rand) (*Packet, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	p := rc.packetLocked(r)
	return p, p != nil
}

// Absorb is a relay's whole per-packet step in one locked section: it
// adds p as Add does, reports the rank after it and whether p closed the
// generation (true exactly once per generation), and, when r is non-nil,
// emits a fresh combination as Packet(r) would — out is nil when r is nil,
// the buffer is empty or p was rejected. p is only read; out is pooled
// and the caller releases it.
func (rc *Recoder) Absorb(p *Packet, r *rand.Rand) (innovative bool, rank int, closed bool, out *Packet, err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	innovative, closed, err = rc.addLocked(p)
	if err == nil && r != nil {
		out = rc.packetLocked(r)
	}
	return innovative, rc.e.rank, closed, out, err
}

// packetLocked emits a random combination of the buffered packets, or nil
// when the buffer is empty. Callers hold rc.mu.
func (rc *Recoder) packetLocked(r *rand.Rand) *Packet {
	e := &rc.e
	if e.rank == 0 {
		return nil
	}
	// Any spanning set of the received subspace serves: echelon rows before
	// full rank, the source packets themselves after. A packet's row has
	// the arena's layout, so the whole emit is one dot product over
	// payload and coefficients together.
	p := getPacket(rc.gen, e.clen, e.size)
	var d gf.Dot
	d.Reset(e.f, p.row)
	for s := 0; s < e.rank; s++ {
		d.Add(e.row(s), e.f.Rand(r))
	}
	d.Flush()
	return p
}

// Decode returns the source packets once the recoder is complete; a node
// that has gathered full rank can play out the content directly.
func (rc *Recoder) Decode() ([][]byte, error) { return rc.source() }
