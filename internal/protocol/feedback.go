package protocol

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
)

// Completion feedback. A child's probe to its parent on a thread may carry
// a tail after the 27-byte keepalive layout: a uint32 low-water slot, below
// which every generation slot is full, then a bitmap of the full slots
// above it (byte i, bit j, least significant first, is slot low+8i+j).
// The report covers the child's whole subtree on that thread, folded up
// hop by hop, and its parent (or the source) stops sending that child
// generations the report marks full. A probe without a tail reports
// nothing full. See DESIGN.md, "Completion feedback".

// reportTailMin is the tail's low-water word; reportBitmapCap caps its
// bitmap at 8 192 slots above the low-water mark, so the longest probe
// (27 + 4 + 1 024 bytes) fits a 1 452-byte UDP datagram. Slots past the
// cap count as not full.
const (
	reportTailMin   = 4
	reportBitmapCap = 1024
)

// errReportTail marks a probe whose tail is cut inside the low-water word
// or whose bitmap runs past reportBitmapCap.
var errReportTail = errors.New("protocol: malformed completion report")

// downstream is one thread's downstream end as its sender, the source or
// a node, sees it: the child the thread's stream goes to ("" while it
// hangs) and the completion report that child last sent up on its probe.
// It keeps the one rule both senders follow: a new child resets the
// report, which described the old subtree; only the current child's
// probe is heard; and a generation the report marks full is not sent
// (wants, and the source's schedule, which skips by full).
type downstream struct {
	child string
	full  genSet
}

// set routes the thread to child ("" hangs it) with no report yet.
func (d *downstream) set(child string) { *d = downstream{child: child} }

// hear takes a keepalive from addr: it reports whether addr is the
// current child and, when the keepalive is a probe, keeps rep, the report
// on it. From anyone else it changes nothing.
func (d *downstream) hear(addr string, rep genSet, probe bool) bool {
	if d.child == "" || addr != d.child {
		return false
	}
	if probe {
		d.full = rep
	}
	return true
}

// wants reports whether the generation at slot goes down the thread: it
// has a child whose report does not mark slot full.
func (d *downstream) wants(slot int) bool { return d.child != "" && !d.full.full(slot) }

// below returns, as one bit word over slots [64w, 64w+64), what the
// thread's subtree below the sender holds in full: what the child's report
// marks, or every slot when the thread has no child, so that the sender's
// own decoded slots, masked by it, are what it reports up the thread.
func (d *downstream) below(w int) uint64 {
	if d.child == "" {
		return ^uint64(0)
	}
	return d.full.word(w)
}

// genSet is a completion report over generation slots: every slot below
// low is full, slot low+i is full when bit i of bits is set, and every
// other slot is not. The zero genSet reports nothing full. A genSet is
// never modified once built, so copies may share bits.
type genSet struct {
	low  uint32
	bits []uint64
}

// full reports whether slot is marked full.
func (s genSet) full(slot int) bool {
	return s.word(slot>>6)>>(slot&63)&1 != 0
}

// openIn returns the first slot in [lo, hi) not marked full, or -1.
func (s genSet) openIn(lo, hi int) int {
	for lo < hi {
		if free := ^s.word(lo>>6) >> (lo & 63); free != 0 {
			if g := lo + bits.TrailingZeros64(free); g < hi {
				return g
			}
			return -1
		}
		lo += 64 - lo&63
	}
	return -1
}

// nextOpen returns the first slot of [0, n) not marked full, searching
// from slot from and wrapping around, or -1 when all n are full.
func (s genSet) nextOpen(from, n int) int {
	if g := s.openIn(from, n); g >= 0 {
		return g
	}
	return s.openIn(0, from)
}

// word returns the marks of slots [64w, 64w+64) as one bit word, bit i
// for slot 64w+i.
func (s genSet) word(w int) uint64 {
	base, low := int64(64*w), int64(s.low)
	if base+64 <= low {
		return ^uint64(0)
	}
	var x uint64
	if base < low {
		x = 1<<(low-base) - 1 // the slots below the low-water mark
	}
	if off := base - low; off < 0 {
		if len(s.bits) > 0 {
			x |= s.bits[0] << -off
		}
	} else {
		q, r := int(off>>6), off&63
		if q < len(s.bits) {
			x |= s.bits[q] >> r
		}
		if r != 0 && q+1 < len(s.bits) {
			x |= s.bits[q+1] << (64 - r)
		}
	}
	return x
}

// within reports whether every slot of words' range that s marks full is
// set in words, bit i of words[w] for slot 64w+i.
func (s genSet) within(words []uint64) bool {
	for w, x := range words {
		if s.word(w)&^x != 0 {
			return false
		}
	}
	return true
}

// foldWords builds the report whose full slots are the set bits of words,
// bit i of words[w] for slot 64w+i. Its low-water mark is the first slot
// of the first word not wholly full, so the bitmap is the words from there
// on, up to reportBitmapCap bytes and the last nonzero word. The report
// does not share words.
func foldWords(words []uint64) genSet {
	lw := 0
	for lw < len(words) && words[lw] == ^uint64(0) {
		lw++
	}
	above := words[lw:min(len(words), lw+reportBitmapCap/8)]
	for len(above) > 0 && above[len(above)-1] == 0 {
		above = above[:len(above)-1]
	}
	return genSet{low: uint32(64 * lw), bits: append([]uint64(nil), above...)}
}

// equal reports whether s and o carry the same low-water mark and bitmap.
func (s genSet) equal(o genSet) bool {
	return s.low == o.low && slices.Equal(s.bits, o.bits)
}

// firstOpen returns the first slot not set in words, bit i of words[w]
// for slot 64w+i: the exact low-water mark, which foldWords rounds down
// to a word.
func firstOpen(words []uint64) int {
	for w, x := range words {
		if x != ^uint64(0) {
			return 64*w + bits.TrailingZeros64(^x)
		}
	}
	return 64 * len(words)
}

// empty reports whether the set marks nothing full.
func (s genSet) empty() bool { return s.low == 0 && len(s.bits) == 0 }

// appendReport appends s as a probe tail to a keepalive frame. An empty
// set appends nothing: the bare 27-byte probe already means "nothing
// full".
func appendReport(frame []byte, s genSet) []byte {
	if s.empty() {
		return frame
	}
	frame = binary.BigEndian.AppendUint32(frame, s.low)
	bitmap := len(frame)
	for _, w := range s.bits {
		frame = binary.LittleEndian.AppendUint64(frame, w)
	}
	for len(frame) > bitmap && frame[len(frame)-1] == 0 {
		frame = frame[:len(frame)-1] // trailing zero bytes carry nothing
	}
	return frame
}

// decodeReport reads the completion tail of a keepalive frame. A frame of
// exactly the keepalive layout reports nothing full; a tail cut inside
// its low-water word or with a bitmap over reportBitmapCap is an error.
func decodeReport(frame []byte) (genSet, error) {
	if len(frame) < keepaliveEchoLen || frame[0] != frameKeepalive {
		return genSet{}, errors.New("protocol: not a keepalive frame")
	}
	tail := frame[keepaliveEchoLen:]
	if len(tail) == 0 {
		return genSet{}, nil
	}
	if len(tail) < reportTailMin || len(tail)-reportTailMin > reportBitmapCap {
		return genSet{}, errReportTail
	}
	s := genSet{low: binary.BigEndian.Uint32(tail)}
	bm := tail[reportTailMin:]
	for len(bm) > 0 && bm[len(bm)-1] == 0 {
		bm = bm[:len(bm)-1]
	}
	if len(bm) > 0 {
		s.bits = make([]uint64, (len(bm)+7)/8)
		for i, b := range bm {
			s.bits[i>>3] |= uint64(b) << (8 * (i & 7))
		}
	}
	return s, nil
}
