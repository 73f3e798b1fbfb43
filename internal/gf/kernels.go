package gf

import (
	"encoding/binary"
	"sync/atomic"
	"unsafe"
)

// This file holds the data-plane kernel dispatch and every pure-Go kernel
// implementation. The bulk slice operations on the three fields route
// through the package-level function variables below, which are selected
// once at package load:
//
//   - default ("purego" tag absent): dispatch.go upgrades the XOR and
//     GF(2^16) kernels to the word-at-a-time implementations here, and on
//     amd64 the kernels to the assembly in kernels_amd64.s: AVX2 (32
//     bytes per iteration via PSHUFB nibble tables), then, where the CPU
//     has GFNI, the GF(2^8) multiply to one affine instruction per 32
//     bytes and Dot to a fused four-row pass.
//   - with -tags purego: no init runs; the variables keep their scalar
//     reference values and every kernel is plain bounds-checked Go.
//
// The reference kernels are compiled unconditionally so differential
// tests (and the perf harness's speedup baseline) can always reach them.

var (
	xorSlice         = refXORSlice
	mulSlice256      = refMulSlice256
	addMulSlice256   = refAddMulSlice256
	mulSlice65536    = refMulSlice65536
	addMulSlice65536 = refAddMulSlice65536
	accelName        = "purego"
)

// fused256 is set by a platform whose Dot.flushFused runs GF(2^8) rows
// in a fused multi-row kernel.
var fused256 bool

// ---- Scalar reference kernels (the seed implementations) ----
//
// All multiply kernels assume c >= 2: the field methods peel off the c==0
// and c==1 cases (zero/copy/no-op) before dispatching.

func refXORSlice(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

func refMulSlice256(dst, src []byte, c uint16) {
	row := &mul256[c&0xFF]
	for i := range dst {
		dst[i] = row[src[i]]
	}
}

func refAddMulSlice256(dst, src []byte, c uint16) {
	row := &mul256[c&0xFF]
	for i := range dst {
		dst[i] ^= row[src[i]]
	}
}

func refMulSlice65536(dst, src []byte, c uint16) {
	lc := log65536[c]
	for i := 0; i+1 < len(dst); i += 2 {
		s := binary.LittleEndian.Uint16(src[i:])
		var p uint16
		if s != 0 {
			p = exp65536[lc+log65536[s]]
		}
		binary.LittleEndian.PutUint16(dst[i:], p)
	}
}

func refAddMulSlice65536(dst, src []byte, c uint16) {
	lc := log65536[c]
	for i := 0; i+1 < len(dst); i += 2 {
		s := binary.LittleEndian.Uint16(src[i:])
		if s == 0 {
			continue
		}
		p := exp65536[lc+log65536[s]]
		binary.LittleEndian.PutUint16(dst[i:], binary.LittleEndian.Uint16(dst[i:])^p)
	}
}

// RefAddSlice, RefMulSlice, and RefAddMulSlice expose the scalar reference
// path for the given field regardless of build tags, for differential
// benchmarking (the perf harness reports the optimized/reference speedup).
// They handle the c==0/1 special cases exactly like the Field methods.
func RefAddSlice(f Field, dst, src []byte) {
	checkLen(dst, src, f.SymbolSize())
	refXORSlice(dst, src)
}

// RefMulSlice is the reference MulSlice; see RefAddSlice.
func RefMulSlice(f Field, dst, src []byte, c uint16) {
	checkLen(dst, src, f.SymbolSize())
	c &= uint16(f.Order() - 1)
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		if f.Bits() == 8 {
			refMulSlice256(dst, src, c)
		} else {
			refMulSlice65536(dst, src, c)
		}
	}
}

// RefAddMulSlice is the reference AddMulSlice; see RefAddSlice.
func RefAddMulSlice(f Field, dst, src []byte, c uint16) {
	checkLen(dst, src, f.SymbolSize())
	c &= uint16(f.Order() - 1)
	switch c {
	case 0:
	case 1:
		refXORSlice(dst, src)
	default:
		if f.Bits() == 8 {
			refAddMulSlice256(dst, src, c)
		} else {
			refAddMulSlice65536(dst, src, c)
		}
	}
}

// ---- Word-at-a-time generic kernels ----

// xorWords XORs eight bytes per iteration through uint64 loads; the
// encoding/binary calls compile to single MOVQs.
func xorWords(dst, src []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

// buildNibTab65536 fills the eight 16-entry byte-plane product tables the
// GF(2^16) vector kernel shuffles against: a product c*s decomposes over
// the four nibbles of s, so with fi(n) = c*(n << 4i) the low result byte
// is loPlane(f0(n0)^f1(n1)^f2(n2)^f3(n3)) and likewise for the high byte.
// Layout: [T0lo T0hi T1lo T1hi T2lo T2hi T3lo T3hi], 16 bytes each.
// Building costs 60 log/exp multiplies, so the vector wrappers fetch
// tables through the per-coefficient cache below; index 0 stays zero.
func buildNibTab65536(c uint16, tab *[128]byte) {
	lc := log65536[c]
	for n := uint32(1); n < 16; n++ {
		f0 := exp65536[lc+log65536[n]]
		f1 := exp65536[lc+log65536[n<<4]]
		f2 := exp65536[lc+log65536[n<<8]]
		f3 := exp65536[lc+log65536[n<<12]]
		tab[n], tab[16+n] = byte(f0), byte(f0>>8)
		tab[32+n], tab[48+n] = byte(f1), byte(f1>>8)
		tab[64+n], tab[80+n] = byte(f2), byte(f2>>8)
		tab[96+n], tab[112+n] = byte(f3), byte(f3>>8)
	}
}

// tab65536Cache amortizes GF(2^16) nibble-table construction across calls:
// decode and recode workloads revisit the same 16-bit coefficients many
// times over a session, and each table costs 60 log/exp multiplies — more
// than the vector loop itself for KiB-scale rows. Entries are built on
// first use and published through an atomic pointer; tables are immutable
// after publication, so a racing double build wastes one 128-byte
// allocation at worst and readers can never observe a partial table.
// Fully populated the cache tops out at 8 MiB (65536 x 128 B), reached
// only by a workload that has already paid for 65536 distinct builds.
var tab65536Cache [1 << 16]atomic.Pointer[[128]byte]

// tab65536For returns the cached nibble table for coefficient c, building
// and publishing it on first use.
func tab65536For(c uint16) *[128]byte {
	if t := tab65536Cache[c].Load(); t != nil {
		return t
	}
	t := new([128]byte)
	buildNibTab65536(c, t)
	tab65536Cache[c].Store(t)
	return t
}

// ---- Fused multi-row accumulation ----

// Dot accumulates a dot product of rows, dst += c0*src0 + c1*src1 + ...:
// the one operation that encoding, recoding, elimination and
// back-substitution each run per coded packet. Add buffers a row's
// pointer and coefficient. Every fourth row, and at Flush, the buffered
// rows go through dst in one pass where the platform has a fused kernel
// (GF(2^8) on an amd64 CPU with GFNI), and through the single-row
// kernels otherwise. A Dot is a small value for its caller's stack,
// started in place with Reset (a constructor returning the struct cost
// a store-forwarding stall on the copy), then Add per row and Flush
// once; it allocates nothing. Source rows must have dst's length and
// must not overlap dst, and dst holds the sum only after Flush.
type Dot struct {
	dst   *byte
	size  int
	mask  uint16 // Order()-1, which also names the field
	fused bool   // GF(2^8) with a fused platform kernel
	n     uint8  // buffered rows
	c     [4]uint16
	src   [4]*byte
}

// Reset starts a new dot product over f into dst, dropping any rows
// not yet flushed.
func (d *Dot) Reset(f Field, dst []byte) {
	d.dst, d.size, d.n = unsafe.SliceData(dst), len(dst), 0
	d.mask, d.fused = dotField(f, len(dst))
}

// dotField returns f's element mask, Order()-1, and whether its rows
// take the fused kernel, after checking that n bytes are whole symbols
// of f.
func dotField(f Field, n int) (mask uint16, fused bool) {
	switch f.(type) {
	case GF256:
		return 0xFF, fused256
	case GF2:
		return 1, false
	}
	if sym := f.SymbolSize(); n%sym != 0 {
		badLen(n, n, sym)
	}
	return uint16(f.Order() - 1), false
}

// Add accumulates c*src into the dot product. Zero coefficients and
// empty rows cost nothing.
func (d *Dot) Add(src []byte, c uint16) {
	if len(src) != d.size {
		panic("gf: Dot row length differs from dst")
	}
	if c &= d.mask; c == 0 || d.size == 0 {
		return
	}
	i := d.n & 3 // always d.n; the mask drops the bounds checks
	d.src[i], d.c[i] = unsafe.SliceData(src), c
	if d.n = i + 1; d.n == 4 {
		d.flush()
	}
}

// Flush adds the buffered rows into dst. The Dot stays usable.
func (d *Dot) Flush() {
	if d.n > 0 {
		d.flush()
	}
}

func (d *Dot) flush() {
	if d.fused {
		d.flushFused()
	} else {
		d.flushEach()
	}
	d.n = 0
}

// flushEach runs each buffered row through its field's single-row
// kernel. A fused AVX2 PSHUFB kernel measured 1.3-1.5x in isolation and
// moved no workload beyond its noise, so this loop is the path on every
// platform without GFNI.
func (d *Dot) flushEach() {
	dst := unsafe.Slice(d.dst, d.size)
	for i, p := range d.src[:d.n] {
		src := unsafe.Slice(p, d.size)
		switch c := d.c[i]; {
		case c == 1:
			xorSlice(dst, src)
		case d.mask == 0xFF:
			addMulSlice256(dst, src, c)
		default:
			addMulSlice65536(dst, src, c)
		}
	}
}
