package rlnc

import (
	"fmt"

	"ncast/internal/gf"
)

// genDecoder is the package's one elimination engine: one generation's
// linear system, with no locks and no per-packet allocation. Decoder,
// Recoder, FileDecoder and ParallelFileDecoder all reach it through
// codec (codec.go), which adds the mutex. Three choices matter for
// throughput:
//
//   - Contiguous storage. All h coefficient rows live in one []uint16
//     and all h payload rows in one []byte arena, so elimination walks
//     cache lines instead of chasing per-row allocations. The arenas are
//     allocated on the first packet, so holding a decoder for a
//     generation that has not started costs only this struct.
//   - Coefficient-first elimination. An incoming packet is forward-
//     eliminated on its h-element coefficient vector alone, recording
//     (slot, factor) steps; the payload — three orders of magnitude
//     wider — is touched only if the packet turns out innovative. A
//     redundant packet, the steady state of a flooded overlay, costs
//     zero payload work.
//   - Deferred back-substitution. Rows are kept in row-echelon form
//     (not reduced); the upper triangle is cleared once, inside the add
//     that closes rank, using fully-reduced source rows so each
//     coefficient update is a single store. A complete engine is
//     therefore always reduced: its rows are the source packets.
//
// Systematic packets (unit coefficient vectors, flagged on the wire)
// install with no field work at all when their column is open: the only
// payload op on the loss-free path is the copy into the arena.
type genDecoder struct {
	f    gf.Field
	h    int
	size int
	// coeffs and arena hold the installed rows by slot, in arrival
	// order: row s occupies coeffs[s*h:(s+1)*h] and
	// arena[s*size:(s+1)*size]. Nil until the first packet.
	coeffs []uint16
	arena  []byte
	// pivotOf maps column -> slot (-1 when open). Rows are in echelon
	// form: the row whose pivot is column c is zero left of c and 1 there.
	pivotOf []int32
	rank    int

	sc    []uint16   // staging coefficient vector
	steps []elimStep // payload replay log for the current packet
}

// elimStep records one forward-elimination against an installed row, to
// be replayed on the payload only for innovative packets.
type elimStep struct {
	slot   int
	factor uint16
}

func (e *genDecoder) alloc() {
	e.coeffs = make([]uint16, e.h*e.h)
	e.arena = make([]byte, e.h*e.size)
	e.pivotOf = make([]int32, e.h)
	for i := range e.pivotOf {
		e.pivotOf[i] = -1
	}
	e.sc = make([]uint16, e.h)
	e.steps = make([]elimStep, 0, e.h)
}

func (e *genDecoder) coeffRow(s int) []uint16 { return e.coeffs[s*e.h : (s+1)*e.h] }
func (e *genDecoder) arenaRow(s int) []byte   { return e.arena[s*e.size : (s+1)*e.size] }

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
	} else if len(p.Coeff) != e.h {
		return false, fmt.Errorf("rlnc: coefficient length %d, want %d", len(p.Coeff), e.h)
	}
	if e.complete() {
		return false, nil // nothing left to learn
	}
	if e.arena == nil {
		e.alloc()
	}
	if p.Sys {
		// The index is trusted over p.Coeff, which may be stale on
		// hand-built packets.
		idx := int(p.SysIdx)
		if e.pivotOf[idx] < 0 {
			// Open column: install the identity row directly. No field
			// ops — the copy is the entire cost of the loss-free fast
			// path.
			e.coeffRow(e.rank)[idx] = 1
			copy(e.arenaRow(e.rank), p.Payload)
			e.install(idx)
			return true, nil
		}
		// Column already pivoted (duplicate, or arrived after a coded
		// row): general elimination on the reconstructed unit vector.
		clear(e.sc)
		e.sc[idx] = 1
	} else {
		copy(e.sc, p.Coeff)
	}
	return e.eliminate(p.Payload), nil
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

// eliminate forward-eliminates the staged coefficient vector e.sc against
// the echelon rows, then replays the recorded steps on the payload only
// if the packet was innovative. Maintaining echelon (not reduced) form
// lets the scan stop at the packet's new leading column.
func (e *genDecoder) eliminate(payload []byte) bool {
	e.steps = e.steps[:0]
	lead := -1
	for c := 0; c < e.h; c++ {
		v := e.sc[c]
		if v == 0 {
			continue
		}
		s := e.pivotOf[c]
		if s < 0 {
			lead = c
			break
		}
		// Row s is zero left of c and 1 at c, so eliminating from offset
		// c touches only the live suffix and zeroes sc[c] exactly.
		e.f.AddMulCoeff(e.sc[c:], e.coeffRow(int(s))[c:], v)
		e.steps = append(e.steps, elimStep{slot: int(s), factor: v})
	}
	if lead < 0 {
		return false // redundant: not one byte of payload touched
	}
	dst := e.arenaRow(e.rank)
	copy(dst, payload)
	for _, st := range e.steps {
		e.f.AddMulSlice(dst, e.arenaRow(st.slot), st.factor)
	}
	crow := e.coeffRow(e.rank)
	copy(crow, e.sc)
	if v := crow[lead]; v != 1 {
		inv := e.f.Inv(v)
		e.f.MulCoeff(crow, inv)
		e.f.MulSlice(dst, dst, inv)
	}
	e.install(lead)
	return true
}

// reduce runs the deferred back-substitution once the generation has
// closed rank, clearing the upper triangle. Columns are processed in
// descending order so the source row of every elimination is already a
// unit vector — which means the coefficient-side update for each step is
// a single store, and only the payload pays an AddMulSlice.
func (e *genDecoder) reduce() {
	for c := e.h - 1; c > 0; c-- {
		ps := int(e.pivotOf[c])
		src := e.arenaRow(ps)
		for r := 0; r < e.h; r++ {
			if r == ps {
				continue
			}
			crow := e.coeffRow(r)
			if v := crow[c]; v != 0 {
				e.f.AddMulSlice(e.arenaRow(r), src, v)
				crow[c] = 0
			}
		}
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
		out[c] = e.arenaRow(int(e.pivotOf[c]))
	}
	return out, nil
}
