package rlnc

import (
	"fmt"

	"ncast/internal/gf"
)

// genDecoder is the package's one elimination engine: one generation's
// linear system, with no locks and no per-packet allocation. Decoder,
// Recoder, FileDecoder and ParallelFileDecoder all reach it through
// codec (codec.go), which adds the mutex. Four choices matter for
// throughput:
//
//   - One row per packet. Row s of a single arena holds the payload, then
//     the h coefficients in the field's symbol layout (as Packet.Coeff),
//     then zero padding to a 32-byte stride (rowStride). Elimination
//     walks cache lines instead of chasing per-row allocations, and a
//     row operation on payload and coefficients together is one kernel
//     call. A Decoder's or a FileDecoder's arena is allocated on its
//     first packet, so holding a decoder for a generation that has not
//     started costs only this struct; NewRecoders carves the arenas of
//     a run of recoders from one slab instead (carve).
//   - Coefficient-first elimination. An incoming packet's coefficients
//     are staged in the next free row and forward-eliminated there alone,
//     recording (slot, factor) steps; the payload — orders of magnitude
//     wider — is touched only if the packet turns out innovative. A
//     redundant packet, the steady state of a flooded overlay, costs
//     zero payload work.
//   - One pass per four rows. Every payload combination (the replay of
//     an innovative packet's steps, back-substitution, and a recoder's
//     emit) is one gf.Dot, dst += sum of c_i*row_i, which on a GFNI host
//     loads and stores the destination once per four source rows.
//   - Deferred back-substitution. Rows are kept in row-echelon form
//     (not reduced); the upper triangle is cleared once, inside the add
//     that closes rank, using fully-reduced source rows. A complete
//     engine is therefore always reduced: its rows are the source
//     packets.
//
// Systematic packets (unit coefficient vectors, flagged on the wire)
// install with no field work at all when their column is open: the only
// payload op on the loss-free path is the copy into the arena.
type genDecoder struct {
	f      gf.Field
	h      int
	size   int
	sym    int // f.SymbolSize()
	clen   int // coefficient bytes per row, h*sym
	stride int // rowStride(clen, size)
	// arena holds the installed rows by slot, in arrival order, at
	// stride bytes each: payload at [0,size), coefficients at
	// [size,size+clen), zero pad after. Slot rank stages the incoming
	// packet. Nil until the first packet, or until carve.
	arena []byte
	// pivotOf maps column -> slot (-1 when open). Rows are in echelon
	// form: the row whose pivot is column c is zero left of c and 1 there.
	pivotOf []int32
	rank    int

	steps []elimStep // payload replay log for the current packet
}

// elimStep records one forward-elimination against an installed row, to
// be replayed on the payload only for innovative packets.
type elimStep struct {
	slot   int
	factor uint16
}

func newGenDecoder(f gf.Field, h, size int) genDecoder {
	sym := f.SymbolSize()
	return genDecoder{f: f, h: h, size: size, sym: sym, clen: h * sym, stride: rowStride(h*sym, size)}
}

// alloc gives the engine memory of its own, on its first packet.
func (e *genDecoder) alloc() {
	e.carve(make([]byte, e.h*e.stride), make([]int32, e.h), make([]elimStep, e.h))
}

// carve hands the engine its memory: an arena of h*stride zero bytes, an
// h-entry pivot map and an h-entry step log, which it owns from now on.
func (e *genDecoder) carve(arena []byte, pivotOf []int32, steps []elimStep) {
	e.arena, e.pivotOf, e.steps = arena, pivotOf, steps[:0]
	for i := range pivotOf {
		pivotOf[i] = -1
	}
}

// row returns slot s whole: payload, coefficients and pad.
func (e *genDecoder) row(s int) []byte { return e.arena[s*e.stride : (s+1)*e.stride] }

// coeffs returns the coefficient part of slot s with its zero pad: when
// size is a multiple of 32 that is whole 32-byte blocks, so the kernels
// run on it without a scalar tail.
func (e *genDecoder) coeffs(s int) []byte { return e.row(s)[e.size:] }

func (e *genDecoder) complete() bool { return e.rank == e.h }

// add absorbs one packet, reporting whether it raised the rank. The
// packet is only read; the caller keeps ownership. The add that closes
// rank also back-substitutes, so complete() means the source rows are
// available.
func (e *genDecoder) add(p *Packet) (bool, error) {
	if len(p.Payload) != e.size {
		return false, fmt.Errorf("rlnc: payload length %d, want %d", len(p.Payload), e.size)
	}
	if p.Sys {
		if int(p.SysIdx) >= e.h {
			return false, fmt.Errorf("rlnc: systematic index %d out of range [0,%d)", p.SysIdx, e.h)
		}
	} else if len(p.Coeff) != e.clen {
		return false, fmt.Errorf("rlnc: coefficient vector of %d bytes, want %d", len(p.Coeff), e.clen)
	}
	if e.complete() {
		return false, nil // nothing left to learn
	}
	if e.arena == nil {
		e.alloc()
	}
	stage := e.coeffs(e.rank)
	if !p.Sys {
		copy(stage, p.Coeff)
		return e.eliminate(p.Payload), nil
	}
	// The index is trusted over p.Coeff, which may be stale on hand-built
	// packets.
	idx := int(p.SysIdx)
	clear(stage)
	setCoeff(e.f, stage, idx, 1)
	if e.pivotOf[idx] >= 0 {
		// Column already pivoted (duplicate, or arrived after a coded
		// row): general elimination on the unit vector.
		return e.eliminate(p.Payload), nil
	}
	// Open column: the unit vector is already an echelon row. No field
	// ops — the copy is the entire cost of the loss-free fast path.
	copy(e.row(e.rank), p.Payload)
	e.install(idx)
	return true, nil
}

// install records the row just written to slot e.rank as the pivot row of
// column lead, and back-substitutes if that closed rank.
func (e *genDecoder) install(lead int) {
	e.pivotOf[lead] = int32(e.rank)
	e.rank++
	if e.complete() {
		e.reduce()
	}
}

// eliminate forward-eliminates the coefficients staged in slot e.rank
// against the echelon rows, then replays the recorded steps on the
// payload only if the packet was innovative. Maintaining echelon (not
// reduced) form lets the scan stop at the packet's new leading column. A
// redundant packet leaves the stage all zero.
func (e *genDecoder) eliminate(payload []byte) bool {
	stage := e.coeffs(e.rank)
	e.steps = e.steps[:0]
	lead := -1
	for c := 0; c < e.h; c++ {
		v := coeffAt(e.f, stage, c)
		if v == 0 {
			continue
		}
		s := e.pivotOf[c]
		if s < 0 {
			lead = c
			break
		}
		// Row s is zero left of c and 1 at c, so eliminating from the
		// 32-byte block holding column c touches only the live suffix
		// and zeroes the stage there.
		o := (c * e.sym) &^ 31
		e.f.AddMulSlice(stage[o:], e.coeffs(int(s))[o:], v)
		e.steps = append(e.steps, elimStep{slot: int(s), factor: v})
	}
	if lead < 0 {
		return false // redundant: not one byte of payload touched
	}
	dst := e.row(e.rank)
	copy(dst, payload)
	var d gf.Dot
	d.Reset(e.f, dst[:e.size])
	for _, st := range e.steps {
		d.Add(e.row(st.slot)[:e.size], st.factor)
	}
	d.Flush()
	if v := coeffAt(e.f, stage, lead); v != 1 {
		e.f.MulSlice(dst, dst, e.f.Inv(v))
	}
	e.install(lead)
	return true
}

// reduce runs the deferred back-substitution once the generation has
// closed rank, clearing the upper triangle. Rows are reduced in
// descending pivot order, so the source row of every elimination is
// already a unit vector: the step only clears the target's coefficient
// at that column, so the kernel runs on the payload alone and the
// target's coefficients right of its pivot are cleared once at the end.
func (e *genDecoder) reduce() {
	var d gf.Dot
	for p := e.h - 2; p >= 0; p-- {
		dst := e.row(int(e.pivotOf[p]))
		coeff := dst[e.size : e.size+e.clen]
		d.Reset(e.f, dst[:e.size])
		for c := p + 1; c < e.h; c++ {
			if v := coeffAt(e.f, coeff, c); v != 0 {
				d.Add(e.row(int(e.pivotOf[c]))[:e.size], v)
			}
		}
		d.Flush()
		clear(coeff[(p+1)*e.sym:])
	}
}

// source returns the decoded payload rows in source order. Rows alias
// the arena and must not be modified.
func (e *genDecoder) source() ([][]byte, error) {
	if !e.complete() {
		return nil, fmt.Errorf("rlnc: generation incomplete: rank %d of %d", e.rank, e.h)
	}
	out := make([][]byte, e.h)
	for c := range out {
		out[c] = e.row(int(e.pivotOf[c]))[:e.size:e.size]
	}
	return out, nil
}
