package gf

import "math/rand"

// GF2 is the two-element field {0,1}. Addition and multiplication are XOR
// and AND. It exists mainly for the field-size ablation (experiment E12):
// coding over GF(2) is cheap but a random combination fails to be
// innovative with probability up to 1/2, which the larger fields fix.
type GF2 struct{}

// F2 is the shared GF(2) instance.
var F2 = GF2{}

// Name implements Field.
func (GF2) Name() string { return "GF(2)" }

// Bits implements Field.
func (GF2) Bits() int { return 1 }

// Order implements Field.
func (GF2) Order() int { return 2 }

// SymbolSize implements Field. GF(2) symbols are packed eight to a byte,
// so the bulk kernels treat whole bytes as vectors of eight symbols.
func (GF2) SymbolSize() int { return 1 }

// Add implements Field.
func (GF2) Add(a, b uint16) uint16 { return (a ^ b) & 1 }

// Mul implements Field.
func (GF2) Mul(a, b uint16) uint16 { return a & b & 1 }

// Inv implements Field.
func (GF2) Inv(a uint16) uint16 {
	if a&1 == 0 {
		panic("gf: inverse of zero in GF(2)")
	}
	return 1
}

// Div implements Field.
func (g GF2) Div(a, b uint16) uint16 { return g.Mul(a, g.Inv(b)) }

// Rand implements Field.
func (GF2) Rand(r *rand.Rand) uint16 { return uint16(r.Intn(2)) }

// RandNonZero implements Field.
func (GF2) RandNonZero(*rand.Rand) uint16 { return 1 }

// AddSlice implements Field.
func (GF2) AddSlice(dst, src []byte) {
	checkLen(dst, src, 1)
	xorSlice(dst, src)
}

// MulSlice implements Field.
func (GF2) MulSlice(dst, src []byte, c uint16) {
	checkLen(dst, src, 1)
	if c&1 == 0 {
		clear(dst)
		return
	}
	copy(dst, src)
}

// AddMulSlice implements Field.
func (GF2) AddMulSlice(dst, src []byte, c uint16) {
	checkLen(dst, src, 1)
	if c&1 == 0 {
		return
	}
	xorSlice(dst, src)
}
