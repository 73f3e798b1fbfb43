package rlnc

import (
	"errors"
	"fmt"
	"math/rand"

	"ncast/internal/gf"
	"ncast/internal/obs"
)

// ErrIncomplete is returned when content is requested before every
// generation has been decoded.
var ErrIncomplete = errors.New("rlnc: content incomplete")

// Params fixes the coding parameters of one broadcast session. Both ends
// must agree on them out of band (the protocol layer carries them in the
// hello exchange).
type Params struct {
	// Field is the coding field (gf.F2, gf.F256, or gf.F65536).
	Field gf.Field
	// GenSize is h, the number of source packets per generation.
	GenSize int
	// PacketSize is the payload length of each packet in bytes; it must
	// be a multiple of the field's symbol size.
	PacketSize int
}

// Validate checks the parameter combination.
func (p Params) Validate() error {
	if p.Field == nil {
		return errors.New("rlnc: nil field")
	}
	if p.GenSize <= 0 || p.GenSize > 65535 {
		return fmt.Errorf("rlnc: generation size %d out of range [1,65535]", p.GenSize)
	}
	if p.PacketSize <= 0 || p.PacketSize%p.Field.SymbolSize() != 0 {
		return fmt.Errorf("rlnc: packet size %d invalid for %s", p.PacketSize, p.Field.Name())
	}
	return nil
}

// genBytes returns the number of content bytes one generation carries.
func (p Params) genBytes() int { return p.GenSize * p.PacketSize }

// Generations returns how many generations content of the given size needs.
func (p Params) Generations(contentLen int) int {
	if contentLen == 0 {
		return 0
	}
	return (contentLen + p.genBytes() - 1) / p.genBytes()
}

// FileEncoder segments a content blob into generations and encodes each.
// It is the server-side source of a broadcast.
type FileEncoder struct {
	params Params
	gens   []*Encoder
}

// NewFileEncoder segments content according to params. The final
// generation is zero-padded to a full h packets so every generation has
// identical shape. The content slice is copied.
func NewFileEncoder(params Params, content []byte) (*FileEncoder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(content) == 0 {
		return nil, errors.New("rlnc: empty content")
	}
	n := params.Generations(len(content))
	fe := &FileEncoder{params: params, gens: make([]*Encoder, 0, n)}
	for g := 0; g < n; g++ {
		src := make([][]byte, params.GenSize)
		base := g * params.genBytes()
		for i := range src {
			src[i] = make([]byte, params.PacketSize)
			off := base + i*params.PacketSize
			if off < len(content) {
				copy(src[i], content[off:])
			}
		}
		enc, err := NewEncoder(params.Field, uint32(g), src)
		if err != nil {
			return nil, err
		}
		fe.gens = append(fe.gens, enc)
	}
	return fe, nil
}

// Params returns the session coding parameters.
func (fe *FileEncoder) Params() Params { return fe.params }

// NumGenerations returns the generation count.
func (fe *FileEncoder) NumGenerations() int { return len(fe.gens) }

// Packet emits a random coded packet for generation g.
func (fe *FileEncoder) Packet(g int, r *rand.Rand) (*Packet, error) {
	if g < 0 || g >= len(fe.gens) {
		return nil, fmt.Errorf("rlnc: generation %d out of range [0,%d)", g, len(fe.gens))
	}
	return fe.gens[g].Packet(r), nil
}

// Systematic emits source packet i of generation g uncoded, flagged for
// the decoder's systematic fast path. Sources send each generation's h
// source packets once this way before switching to random coding, so a
// loss-free receiver decodes at copy speed.
func (fe *FileEncoder) Systematic(g, i int) (*Packet, error) {
	if g < 0 || g >= len(fe.gens) {
		return nil, fmt.Errorf("rlnc: generation %d out of range [0,%d)", g, len(fe.gens))
	}
	return fe.gens[g].Systematic(i)
}

// newCodecs builds one codec per generation of a contentLen-byte blob.
// They are cheap until their first packet: an engine allocates its
// arenas lazily, so a decoder for a large blob does not front-load
// O(generations * GenSize * PacketSize) memory.
func newCodecs(params Params, contentLen int, m *obs.CodecMetrics) ([]codec, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if contentLen <= 0 {
		return nil, fmt.Errorf("rlnc: invalid content length %d", contentLen)
	}
	gens := make([]codec, params.Generations(contentLen))
	for g := range gens {
		gens[g].init(params, uint32(g), m)
	}
	return gens, nil
}

// assemble concatenates the decoded generations and trims the final
// generation's zero padding.
func assemble(gens []codec, params Params, length int) ([]byte, error) {
	out := make([]byte, 0, len(gens)*params.genBytes())
	for g := range gens {
		src, err := gens[g].source()
		if err != nil {
			return nil, err
		}
		for _, pkt := range src {
			out = append(out, pkt...)
		}
	}
	return out[:length], nil
}

// FileDecoder reassembles a content blob from coded packets spanning
// multiple generations.
type FileDecoder struct {
	params Params
	length int
	gens   []codec
	done   int
}

// NewFileDecoder prepares decoding of a blob of contentLen bytes coded
// with params.
func NewFileDecoder(params Params, contentLen int) (*FileDecoder, error) {
	gens, err := newCodecs(params, contentLen, nil)
	if err != nil {
		return nil, err
	}
	return &FileDecoder{params: params, length: contentLen, gens: gens}, nil
}

// Add absorbs a coded packet for any generation of the blob. The packet
// is only read; the caller keeps ownership.
func (fd *FileDecoder) Add(p *Packet) (innovative bool, err error) {
	if int(p.Gen) >= len(fd.gens) {
		return false, fmt.Errorf("rlnc: packet generation %d out of range [0,%d)", p.Gen, len(fd.gens))
	}
	innovative, closed, err := fd.gens[p.Gen].add(p)
	if closed {
		fd.done++
	}
	return innovative, err
}

// NumGenerations returns the generation count.
func (fd *FileDecoder) NumGenerations() int { return len(fd.gens) }

// GenerationComplete reports whether generation g has been decoded.
func (fd *FileDecoder) GenerationComplete(g int) bool { return fd.gens[g].Complete() }

// Complete reports whether every generation has been decoded.
func (fd *FileDecoder) Complete() bool { return fd.done == len(fd.gens) }

// Progress returns the fraction of total rank gathered, in [0,1].
func (fd *FileDecoder) Progress() float64 {
	total := 0
	for g := range fd.gens {
		total += fd.gens[g].Rank()
	}
	return float64(total) / float64(len(fd.gens)*fd.params.GenSize)
}

// Bytes reassembles and returns the original content. It errors with
// ErrIncomplete until Complete() holds.
func (fd *FileDecoder) Bytes() ([]byte, error) {
	if !fd.Complete() {
		return nil, fmt.Errorf("%w: %d of %d generations decoded", ErrIncomplete, fd.done, len(fd.gens))
	}
	return assemble(fd.gens, fd.params, fd.length)
}
