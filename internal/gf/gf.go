// Package gf implements arithmetic over the finite fields GF(2), GF(2^8),
// and GF(2^16), the fields used by the network-coding data plane.
//
// The package exposes three concrete, stateless field implementations —
// F2, F256, and F65536 — behind the Field interface. A single element is
// a uint16 so that callers can be written once and run over any of the
// three fields. Vectors of elements are byte slices in the field's symbol
// layout, operated on in bulk with the slice kernels (AddMulSlice and
// friends); the RLNC codec runs a packet's coefficients and its payload
// through the same kernels, which is where virtually all of the cycles go
// during encoding, recoding, and decoding. Dot is the fused form of a run
// of AddMulSlice calls into one destination, dst += sum of c_i*src_i,
// the dot product each coded packet is.
//
// The kernels are chosen once at package load, in the order purego →
// generic → avx2 → gfni (see Accel): the purego build tag pins the scalar
// reference kernels; otherwise the word-at-a-time Go kernels stand,
// amd64 with AVX2 upgrades to PSHUFB nibble-table assembly (arm64 to its
// NEON mirror), and an amd64 CPU that also has GFNI multiplies GF(2^8)
// with one VGF2P8AFFINEQB per 32 bytes and runs Dot four rows per pass.
//
// GF(2^8) uses the AES-adjacent primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11D); GF(2^16) uses x^16+x^12+x^3+x+1 (0x1100B). Both are generated
// by alpha = 2, which the table builders verify at initialization time.
package gf

import (
	"fmt"
	"math/rand"
)

// Field is the arithmetic abstraction shared by all coding components.
//
// Scalar elements are carried in uint16 regardless of the concrete field;
// values must be < Order(). Vectors are byte slices of SymbolSize-byte
// symbols. Implementations are stateless and safe for concurrent use.
type Field interface {
	// Name returns a short human-readable field name, e.g. "GF(256)".
	Name() string
	// Bits returns the number of bits per field element (1, 8, or 16).
	Bits() int
	// Order returns the number of elements in the field.
	Order() int
	// SymbolSize returns the payload symbol width in bytes (1 for GF(2)
	// and GF(2^8); 2 for GF(2^16)). Payload slices handed to the bulk
	// kernels must have a length divisible by SymbolSize.
	SymbolSize() int

	// Add returns a+b. In characteristic-2 fields addition is XOR and is
	// its own inverse, so Add also implements subtraction.
	Add(a, b uint16) uint16
	// Mul returns a*b.
	Mul(a, b uint16) uint16
	// Inv returns the multiplicative inverse of a. It panics if a == 0;
	// callers eliminate zero pivots before inverting.
	Inv(a uint16) uint16
	// Div returns a/b. It panics if b == 0.
	Div(a, b uint16) uint16

	// Rand returns a uniformly random field element (zero included).
	Rand(r *rand.Rand) uint16
	// RandNonZero returns a uniformly random nonzero field element.
	RandNonZero(r *rand.Rand) uint16

	// AddSlice sets dst[i] ^= src[i] for every byte. Addition is
	// byte-wise XOR in all three fields, independent of symbol size.
	AddSlice(dst, src []byte)
	// MulSlice sets dst[i] = c * src[i] symbol-wise. dst and src may
	// alias exactly (dst == src) but must not otherwise overlap.
	MulSlice(dst, src []byte, c uint16)
	// AddMulSlice sets dst[i] += c * src[i] symbol-wise.
	AddMulSlice(dst, src []byte, c uint16)
}

// Accel names the bulk-kernel implementation selected at package load:
// "purego" (scalar reference, forced by the purego build tag), "generic"
// (word-at-a-time pure Go), "neon" (arm64 vector assembly), "avx2" (amd64
// vector assembly), or "gfni" (amd64 with GFNI: the avx2 kernels, with
// GF(2^8) multiplies through the affine instruction and Dot fused four
// rows per pass).
func Accel() string { return accelName }

// Compile-time interface conformance checks.
var (
	_ Field = GF2{}
	_ Field = GF256{}
	_ Field = GF65536{}
)

// checkLen panics when a bulk kernel is invoked with mismatched slices.
// Length mismatches are programming errors, never data errors. Symbol
// sizes are powers of two, so the test is a mask, small enough to inline
// into every kernel entry point; the message is built out of line.
func checkLen(dst, src []byte, symbol int) {
	if len(dst) != len(src) || len(dst)&(symbol-1) != 0 {
		badLen(len(dst), len(src), symbol)
	}
}

func badLen(dst, src, symbol int) {
	if dst != src {
		panic(fmt.Sprintf("gf: slice length mismatch: dst=%d src=%d", dst, src))
	}
	panic(fmt.Sprintf("gf: slice length %d not a multiple of symbol size %d", dst, symbol))
}
