package gf

import "math/rand"

// poly256 is the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 generating
// GF(2^8) with alpha = 2 as a primitive element.
const poly256 = 0x11D

// GF256 is the 256-element field GF(2^8). Multiplication uses a full
// 64 KiB product table; the bulk kernels use the 256-byte row for the
// scalar, which keeps the inner loop to a single table lookup per byte.
type GF256 struct{}

// F256 is the shared GF(2^8) instance.
var F256 = GF256{}

// Package-level tables for GF(2^8). They are built once by a var
// initializer (no init function) from the primitive polynomial, so they are
// immutable after package load and safe for concurrent readers.
var (
	exp256 [512]byte          // exp256[i] = alpha^i, doubled to avoid mod 255 in Mul
	log256 [256]uint16        // log256[x] = i such that alpha^i = x; log256[0] unused
	inv256 [256]byte          // inv256[x] = x^-1; inv256[0] unused
	mul256 [256][256]byte     // full product table
	nib256 [256][32]byte      // nib256[c] = {c*n | n<16} ++ {c*(n<<4) | n<16}
	_      = buildTables256() // force table construction at package load
)

func buildTables256() struct{} {
	x := 1
	for i := 0; i < 255; i++ {
		exp256[i] = byte(x)
		log256[x] = uint16(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly256
		}
	}
	if x != 1 {
		panic("gf: 0x11D did not generate GF(2^8)")
	}
	for i := 255; i < 512; i++ {
		exp256[i] = exp256[i-255]
	}
	for a := 1; a < 256; a++ {
		inv256[a] = exp256[255-int(log256[a])]
		for b := 1; b < 256; b++ {
			mul256[a][b] = exp256[int(log256[a])+int(log256[b])]
		}
	}
	// Nibble-split product tables: a byte product c*s decomposes as
	// c*(s&0x0f) ^ c*(s&0xf0), so the vector kernels can look 32 products
	// up per PSHUFB pair. Built for every c so table selection is a plain
	// index, including c=0 and c=1 (the dispatchers peel those off, but
	// correctness must not depend on it).
	for c := 0; c < 256; c++ {
		for n := 0; n < 16; n++ {
			nib256[c][n] = mul256[c][n]
			nib256[c][16+n] = mul256[c][n<<4]
		}
	}
	return struct{}{}
}

// Name implements Field.
func (GF256) Name() string { return "GF(256)" }

// Bits implements Field.
func (GF256) Bits() int { return 8 }

// Order implements Field.
func (GF256) Order() int { return 256 }

// SymbolSize implements Field.
func (GF256) SymbolSize() int { return 1 }

// Add implements Field.
func (GF256) Add(a, b uint16) uint16 { return (a ^ b) & 0xFF }

// Mul implements Field.
func (GF256) Mul(a, b uint16) uint16 { return uint16(mul256[a&0xFF][b&0xFF]) }

// Inv implements Field.
func (GF256) Inv(a uint16) uint16 {
	if a&0xFF == 0 {
		panic("gf: inverse of zero in GF(256)")
	}
	return uint16(inv256[a&0xFF])
}

// Div implements Field.
func (g GF256) Div(a, b uint16) uint16 { return g.Mul(a, g.Inv(b)) }

// Rand implements Field.
func (GF256) Rand(r *rand.Rand) uint16 { return uint16(r.Intn(256)) }

// RandNonZero implements Field.
func (GF256) RandNonZero(r *rand.Rand) uint16 { return uint16(1 + r.Intn(255)) }

// AddSlice implements Field.
func (GF256) AddSlice(dst, src []byte) {
	checkLen(dst, src, 1)
	xorSlice(dst, src)
}

// MulSlice implements Field.
func (GF256) MulSlice(dst, src []byte, c uint16) {
	checkLen(dst, src, 1)
	switch c & 0xFF {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		mulSlice256(dst, src, c&0xFF)
	}
}

// AddMulSlice implements Field.
func (g GF256) AddMulSlice(dst, src []byte, c uint16) {
	checkLen(dst, src, 1)
	switch c & 0xFF {
	case 0:
	case 1:
		xorSlice(dst, src)
	default:
		addMulSlice256(dst, src, c&0xFF)
	}
}
