//go:build amd64 && !purego

package gf

import "unsafe"

// AVX2 kernels for the GF(2^8) hot path and bulk XOR. The multiply
// kernels use the classic PSHUFB low/high-nibble split (one 16-byte
// product table per nibble, looked up 32 lanes at a time), which is the
// technique klauspost/reedsolomon and ISA-L use; see nib256 in gf256.go
// for the table layout. Selected at package load iff the CPU and OS
// support AVX2; otherwise the generic dispatch stands.
//
// Where the CPU also has GFNI, the GF(2^8) multiply is one VEX-256
// VGF2P8AFFINEQB per 32 bytes against the bit matrix affine256[c], and
// Dot flushes four rows in one pass over dst (addMulRows256GFNI).

//go:noescape
func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0Asm() (eax, edx uint32)

//go:noescape
func xorSliceAVX2(dst, src *byte, n int)

//go:noescape
func mulSlice256AVX2(dst, src *byte, n int, tab *[32]byte)

//go:noescape
func addMulSlice256AVX2(dst, src *byte, n int, tab *[32]byte)

//go:noescape
func mulSlice256GFNI(dst, src *byte, n int, m uint64)

//go:noescape
func addMulSlice256GFNI(dst, src *byte, n int, c uint16)

//go:noescape
func addMulRows256GFNI(dst *byte, n int, s0, s1, s2, s3 *byte, m0, m1, m2, m3 uint64)

//go:noescape
func mulSlice65536AVX2(dst, src *byte, n int, tab *[128]byte)

//go:noescape
func addMulSlice65536AVX2(dst, src *byte, n int, tab *[128]byte)

func initPlatformKernels() {
	if !cpuHasAVX2() {
		return
	}
	accelName = "avx2"
	xorSlice = xorSliceAsm
	mulSlice256 = mulSlice256Asm
	addMulSlice256 = addMulSlice256Asm
	mulSlice65536 = mulSlice65536Asm
	addMulSlice65536 = addMulSlice65536Asm
	if !cpuHasGFNI() {
		return
	}
	accelName = "gfni"
	mulSlice256 = mulSlice256GFNIAsm
	addMulSlice256 = addMulSlice256GFNIAsm
	fused256 = true
}

// cpuHasAVX2 checks CPU support (leaf 7 EBX bit 5) and that the OS saves
// the YMM state (OSXSAVE + XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if ecx1&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	if xcr0, _ := xgetbv0Asm(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuHasGFNI checks leaf 7 ECX bit 8. The GFNI kernels use only its
// VEX-256 forms, so on top of cpuHasAVX2 (which the caller has passed,
// YMM state included) nothing else is required.
func cpuHasGFNI() bool {
	_, _, ecx7, _ := cpuidAsm(7, 0)
	return ecx7&(1<<8) != 0
}

// The assembly routines process a positive multiple of 32 bytes; the
// wrappers peel the tail onto the scalar reference loops.

func xorSliceAsm(dst, src []byte) {
	n := len(dst) &^ 31
	if n > 0 {
		xorSliceAVX2(&dst[0], &src[0], n)
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

func mulSlice256Asm(dst, src []byte, c uint16) {
	n := len(dst) &^ 31
	if n > 0 {
		mulSlice256AVX2(&dst[0], &src[0], n, &nib256[c&0xFF])
	}
	row := &mul256[c&0xFF]
	for i := n; i < len(dst); i++ {
		dst[i] = row[src[i]]
	}
}

func addMulSlice256Asm(dst, src []byte, c uint16) {
	n := len(dst) &^ 31
	if n > 0 {
		addMulSlice256AVX2(&dst[0], &src[0], n, &nib256[c&0xFF])
	}
	row := &mul256[c&0xFF]
	for i := n; i < len(dst); i++ {
		dst[i] ^= row[src[i]]
	}
}

// The GF(2^16) wrappers take the vector path from the first full 32-byte
// block: with nibble tables cached across calls and a stall-free
// prologue, one vector iteration already beats the scalar log/exp loop.

func mulSlice65536Asm(dst, src []byte, c uint16) {
	n := len(dst) &^ 31
	if n > 0 {
		mulSlice65536AVX2(&dst[0], &src[0], n, tab65536For(c))
	}
	if n < len(dst) {
		refMulSlice65536(dst[n:], src[n:], c)
	}
}

func addMulSlice65536Asm(dst, src []byte, c uint16) {
	n := len(dst) &^ 31
	if n > 0 {
		addMulSlice65536AVX2(&dst[0], &src[0], n, tab65536For(c))
	}
	if n < len(dst) {
		refAddMulSlice65536(dst[n:], src[n:], c)
	}
}

// mulSlice256GFNIAsm runs whole 32-byte blocks in assembly and the tail
// on the product-table row, like the AVX2 wrappers.
func mulSlice256GFNIAsm(dst, src []byte, c uint16) {
	n := len(dst) &^ 31
	if n > 0 {
		mulSlice256GFNI(&dst[0], &src[0], n, affine256[c&0xFF])
	}
	row := &mul256[c&0xFF]
	for i := n; i < len(dst); i++ {
		dst[i] = row[src[i]]
	}
}

// addMulSlice256GFNIAsm is a bare call: the assembly takes any length,
// tail included, which keeps the per-call cost of a 64-byte row low.
func addMulSlice256GFNIAsm(dst, src []byte, c uint16) {
	addMulSlice256GFNI(unsafe.SliceData(dst), unsafe.SliceData(src), len(dst), c&0xFF)
}

// flushFused adds the buffered GF(2^8) rows into dst in one pass per
// 32-byte block. One row takes the single-row kernel; two or three fill
// the four-row kernel's free slots with the first row and a zero matrix,
// whose reloads hit L1. Tails shorter than a block use the product table.
func (d *Dot) flushFused() {
	n := d.size &^ 31
	if n > 0 {
		s, c := &d.src, &d.c
		switch d.n {
		case 4:
			addMulRows256GFNI(d.dst, n, s[0], s[1], s[2], s[3],
				affine256[c[0]&0xFF], affine256[c[1]&0xFF], affine256[c[2]&0xFF], affine256[c[3]&0xFF])
		case 3:
			addMulRows256GFNI(d.dst, n, s[0], s[1], s[2], s[0],
				affine256[c[0]&0xFF], affine256[c[1]&0xFF], affine256[c[2]&0xFF], 0)
		case 2:
			addMulRows256GFNI(d.dst, n, s[0], s[1], s[0], s[0],
				affine256[c[0]&0xFF], affine256[c[1]&0xFF], 0, 0)
		default:
			addMulSlice256GFNI(d.dst, s[0], d.size, c[0]&0xFF)
			return
		}
		if n == d.size {
			return
		}
	}
	dst := unsafe.Slice(d.dst, d.size)
	for i, p := range d.src[:d.n] {
		row, src := &mul256[d.c[i]&0xFF], unsafe.Slice(p, d.size)
		for j := n; j < d.size; j++ {
			dst[j] ^= row[src[j]]
		}
	}
}
