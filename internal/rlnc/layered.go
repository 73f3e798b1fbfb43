package rlnc

import (
	"errors"
	"fmt"
	"math/rand"
)

// Layered broadcasting implements the §5 suggestion that heterogeneous
// users can receive different resolutions via priority encoding
// transmission (Albanese et al. [2]): the content is split into priority
// layers, each layer is network-coded independently, and the packet
// stream is weighted toward lower (more important) layers. A receiver
// with the full bandwidth decodes everything; a degraded or low-degree
// receiver still decodes the base layer first — graceful degradation
// instead of a cliff. A receiver decodes each generation of each layer in
// its own recoder, exactly as it decodes a flat session; the layer sizes
// it needs to reassemble the content ride the session's welcome.
//
// Layer l's generations are namespaced into the packet Gen field as
// (l << layerShift) | g, so layered packets flow through the same
// recoders, wire format, and overlay code as flat ones.

// layerShift positions the layer index in the Gen field; generations
// within a layer are limited to 2^24.
const layerShift = 24

// maxGensPerLayer bounds the per-layer generation count.
const maxGensPerLayer = 1 << layerShift

// LayerOf extracts the layer index from a namespaced generation id.
func LayerOf(gen uint32) int { return int(gen >> layerShift) }

// GenOf extracts the within-layer generation index.
func GenOf(gen uint32) int { return int(gen & (maxGensPerLayer - 1)) }

// LayerGen builds a namespaced generation id from a layer and a
// within-layer generation index.
func LayerGen(layer, g int) uint32 {
	return uint32(layer)<<layerShift | uint32(g)
}

// LayeredParams describes a layered broadcast.
type LayeredParams struct {
	// Params is the per-layer coding configuration.
	Params Params
	// Weights gives each layer's share of the emitted packet stream,
	// most-important layer first. len(Weights) is the layer count;
	// weights need not be normalised but must be positive.
	Weights []float64
}

// Validate checks the configuration.
func (lp LayeredParams) Validate() error {
	if err := lp.Params.Validate(); err != nil {
		return err
	}
	if len(lp.Weights) == 0 {
		return errors.New("rlnc: layered params need at least one layer")
	}
	if len(lp.Weights) > 255 {
		return fmt.Errorf("rlnc: %d layers exceed the namespace", len(lp.Weights))
	}
	for i, w := range lp.Weights {
		if w <= 0 {
			return fmt.Errorf("rlnc: layer %d weight %v, want > 0", i, w)
		}
	}
	return nil
}

// Layers returns the layer count.
func (lp LayeredParams) Layers() int { return len(lp.Weights) }

// LayeredEncoder codes a blob as prioritised layers. The content is split
// into contiguous layer slabs of equal size (the last padded), layer 0
// first — in a video use case layer 0 is the base resolution.
type LayeredEncoder struct {
	encs  []*FileEncoder
	sizes []int
	cum   []float64 // cumulative normalised weights for sampling
}

// NewLayeredEncoder splits content into len(Weights) layers and prepares
// per-layer encoders.
func NewLayeredEncoder(params LayeredParams, content []byte) (*LayeredEncoder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(content) == 0 {
		return nil, errors.New("rlnc: empty content")
	}
	layers := params.Layers()
	per := (len(content) + layers - 1) / layers
	le := &LayeredEncoder{}
	var total float64
	for _, w := range params.Weights {
		total += w
	}
	acc := 0.0
	for l := 0; l < layers; l++ {
		start := l * per
		end := start + per
		if start >= len(content) {
			return nil, fmt.Errorf("rlnc: layer %d empty for content of %d bytes", l, len(content))
		}
		if end > len(content) {
			end = len(content)
		}
		slab := content[start:end]
		fe, err := NewFileEncoder(params.Params, slab)
		if err != nil {
			return nil, fmt.Errorf("rlnc: layer %d: %w", l, err)
		}
		if fe.NumGenerations() > maxGensPerLayer {
			return nil, fmt.Errorf("rlnc: layer %d needs %d generations, max %d", l, fe.NumGenerations(), maxGensPerLayer)
		}
		le.encs = append(le.encs, fe)
		le.sizes = append(le.sizes, len(slab))
		acc += params.Weights[l] / total
		le.cum = append(le.cum, acc)
	}
	return le, nil
}

// Layers returns the layer count.
func (le *LayeredEncoder) Layers() int { return len(le.encs) }

// LayerSize returns layer l's byte length.
func (le *LayeredEncoder) LayerSize(l int) int { return le.sizes[l] }

// Packet emits one coded packet: a layer is sampled by weight, a
// generation within it round-robin by a second random draw, and the
// packet's Gen field carries the (layer, generation) namespace.
func (le *LayeredEncoder) Packet(r *rand.Rand) (*Packet, error) {
	x := r.Float64()
	layer := len(le.cum) - 1
	for i, c := range le.cum {
		if x < c {
			layer = i
			break
		}
	}
	fe := le.encs[layer]
	g := r.Intn(fe.NumGenerations())
	p, err := fe.Packet(g, r)
	if err != nil {
		return nil, err
	}
	p.Gen = LayerGen(layer, g)
	return p, nil
}
