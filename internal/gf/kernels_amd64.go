//go:build amd64 && !purego

package gf

// AVX2 kernels for the GF(2^8) hot path and bulk XOR. The multiply
// kernels use the classic PSHUFB low/high-nibble split (one 16-byte
// product table per nibble, looked up 32 lanes at a time), which is the
// technique klauspost/reedsolomon and ISA-L use; see nib256 in gf256.go
// for the table layout. Selected at package load iff the CPU and OS
// support AVX2; otherwise the generic dispatch stands.

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
