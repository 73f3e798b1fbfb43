package gf

import "math/rand"

// poly65536 is the primitive polynomial x^16 + x^12 + x^3 + x + 1
// generating GF(2^16) with alpha = 2 as a primitive element.
const poly65536 = 0x1100B

// GF65536 is the 65536-element field GF(2^16). Multiplication uses log/exp
// tables (a full product table would be 8 GiB). Payload symbols are 16-bit
// little-endian, so bulk kernels require even-length slices.
type GF65536 struct{}

// F65536 is the shared GF(2^16) instance.
var F65536 = GF65536{}

var (
	exp65536 [131072]uint16 // doubled exp table, avoids mod 65535 in Mul
	log65536 [65536]uint32
	_        = buildTables65536()
)

func buildTables65536() struct{} {
	x := 1
	for i := 0; i < 65535; i++ {
		exp65536[i] = uint16(x)
		log65536[x] = uint32(i)
		x <<= 1
		if x&0x10000 != 0 {
			x ^= poly65536
		}
	}
	if x != 1 {
		panic("gf: 0x1100B did not generate GF(2^16)")
	}
	for i := 65535; i < 131072; i++ {
		exp65536[i] = exp65536[i-65535]
	}
	return struct{}{}
}

// Name implements Field.
func (GF65536) Name() string { return "GF(65536)" }

// Bits implements Field.
func (GF65536) Bits() int { return 16 }

// Order implements Field.
func (GF65536) Order() int { return 65536 }

// SymbolSize implements Field.
func (GF65536) SymbolSize() int { return 2 }

// Add implements Field.
func (GF65536) Add(a, b uint16) uint16 { return a ^ b }

// Mul implements Field.
func (GF65536) Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return exp65536[log65536[a]+log65536[b]]
}

// Inv implements Field.
func (GF65536) Inv(a uint16) uint16 {
	if a == 0 {
		panic("gf: inverse of zero in GF(65536)")
	}
	return exp65536[65535-log65536[a]]
}

// Div implements Field.
func (g GF65536) Div(a, b uint16) uint16 { return g.Mul(a, g.Inv(b)) }

// Rand implements Field.
func (GF65536) Rand(r *rand.Rand) uint16 { return uint16(r.Intn(65536)) }

// RandNonZero implements Field.
func (GF65536) RandNonZero(r *rand.Rand) uint16 { return uint16(1 + r.Intn(65535)) }

// AddSlice implements Field.
func (GF65536) AddSlice(dst, src []byte) {
	checkLen(dst, src, 2)
	xorSlice(dst, src)
}

// MulSlice implements Field.
func (GF65536) MulSlice(dst, src []byte, c uint16) {
	checkLen(dst, src, 2)
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		mulSlice65536(dst, src, c)
	}
}

// AddMulSlice implements Field.
func (GF65536) AddMulSlice(dst, src []byte, c uint16) {
	checkLen(dst, src, 2)
	switch c {
	case 0:
	case 1:
		xorSlice(dst, src)
	default:
		addMulSlice65536(dst, src, c)
	}
}
