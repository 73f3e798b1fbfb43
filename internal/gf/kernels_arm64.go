//go:build arm64 && !purego

package gf

// NEON kernels for arm64. AdvSIMD is architecturally baseline on arm64,
// so no runtime feature detection is needed: the platform hook installs
// the vector kernels unconditionally. The GF(2^8) multiply uses the same
// low/high-nibble product-table split as the AVX2 path, looked up 16
// lanes at a time with TBL (whose out-of-range-index-yields-zero rule
// replaces PSHUFB's bit-7 convention); GF(2^16) shares the 128-byte
// byte-plane tables (and their cross-call cache) with the amd64 kernels.

//go:noescape
func xorSliceNEON(dst, src *byte, n int)

//go:noescape
func mulSlice256NEON(dst, src *byte, n int, tab *[32]byte)

//go:noescape
func addMulSlice256NEON(dst, src *byte, n int, tab *[32]byte)

//go:noescape
func mulSlice65536NEON(dst, src *byte, n int, tab *[128]byte)

//go:noescape
func addMulSlice65536NEON(dst, src *byte, n int, tab *[128]byte)

func initPlatformKernels() {
	accelName = "neon"
	xorSlice = xorSliceNeonWrap
	mulSlice256 = mulSlice256NeonWrap
	addMulSlice256 = addMulSlice256NeonWrap
	mulSlice65536 = mulSlice65536NeonWrap
	addMulSlice65536 = addMulSlice65536NeonWrap
}

// The assembly routines process a positive multiple of 16 bytes; the
// wrappers peel the tail onto the scalar reference loops.

func xorSliceNeonWrap(dst, src []byte) {
	n := len(dst) &^ 15
	if n > 0 {
		xorSliceNEON(&dst[0], &src[0], n)
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

func mulSlice256NeonWrap(dst, src []byte, c uint16) {
	n := len(dst) &^ 15
	if n > 0 {
		mulSlice256NEON(&dst[0], &src[0], n, &nib256[c&0xFF])
	}
	row := &mul256[c&0xFF]
	for i := n; i < len(dst); i++ {
		dst[i] = row[src[i]]
	}
}

func addMulSlice256NeonWrap(dst, src []byte, c uint16) {
	n := len(dst) &^ 15
	if n > 0 {
		addMulSlice256NEON(&dst[0], &src[0], n, &nib256[c&0xFF])
	}
	row := &mul256[c&0xFF]
	for i := n; i < len(dst); i++ {
		dst[i] ^= row[src[i]]
	}
}

// vecCut65536 is the slice length below which the scalar log/exp loop
// takes the whole slice. It has never been timed on arm64 hardware (this
// path has no execution leg); amd64 vectorizes from the first 32 bytes.
const vecCut65536 = 64

func mulSlice65536NeonWrap(dst, src []byte, c uint16) {
	if len(dst) < vecCut65536 {
		refMulSlice65536(dst, src, c)
		return
	}
	n := len(dst) &^ 15
	mulSlice65536NEON(&dst[0], &src[0], n, tab65536For(c))
	if n < len(dst) {
		refMulSlice65536(dst[n:], src[n:], c)
	}
}

func addMulSlice65536NeonWrap(dst, src []byte, c uint16) {
	if len(dst) < vecCut65536 {
		refAddMulSlice65536(dst, src, c)
		return
	}
	n := len(dst) &^ 15
	addMulSlice65536NEON(&dst[0], &src[0], n, tab65536For(c))
	if n < len(dst) {
		refAddMulSlice65536(dst[n:], src[n:], c)
	}
}
