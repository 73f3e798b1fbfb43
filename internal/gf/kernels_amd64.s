//go:build amd64 && !purego

#include "textflag.h"

// Every instruction in a kernel that touches YMM state is VEX-encoded
// (VMOVQ, not MOVQ, into an X register): one legacy-SSE instruction after
// VBROADCASTI128 has dirtied the upper halves costs an SSE/AVX state
// transition, measured at ~140 ns per call. TestAVX2KernelsVEXOnly
// guards the rule.

// func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0Asm() (eax, edx uint32)
TEXT ·xgetbv0Asm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func xorSliceAVX2(dst, src *byte, n int)
// n is a positive multiple of 32.
TEXT ·xorSliceAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

xorloop:
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     xorloop
	VZEROUPPER
	RET

// func mulSlice256AVX2(dst, src *byte, n int, tab *[32]byte)
// dst[i] = tab-lookup product of src[i]; n is a positive multiple of 32.
// tab holds the 16 low-nibble products followed by the 16 high-nibble
// products for the scalar (see nib256).
TEXT ·mulSlice256AVX2(SB), NOSPLIT, $0-32
	MOVQ           dst+0(FP), DI
	MOVQ           src+8(FP), SI
	MOVQ           n+16(FP), CX
	MOVQ           tab+24(FP), DX
	VBROADCASTI128 (DX), Y0           // low-nibble product table
	VBROADCASTI128 16(DX), Y1         // high-nibble product table
	MOVQ           $15, AX
	VMOVQ          AX, X2
	VPBROADCASTB   X2, Y2             // 0x0f byte mask

mulloop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3                // low nibbles
	VPAND   Y2, Y4, Y4                // high nibbles
	VPSHUFB Y3, Y0, Y5                // products of low nibbles
	VPSHUFB Y4, Y1, Y6                // products of high nibbles
	VPXOR   Y5, Y6, Y5
	VMOVDQU Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mulloop
	VZEROUPPER
	RET

// func addMulSlice256AVX2(dst, src *byte, n int, tab *[32]byte)
// dst[i] ^= product of src[i]; n is a positive multiple of 32.
TEXT ·addMulSlice256AVX2(SB), NOSPLIT, $0-32
	MOVQ           dst+0(FP), DI
	MOVQ           src+8(FP), SI
	MOVQ           n+16(FP), CX
	MOVQ           tab+24(FP), DX
	VBROADCASTI128 (DX), Y0
	VBROADCASTI128 16(DX), Y1
	MOVQ           $15, AX
	VMOVQ          AX, X2
	VPBROADCASTB   X2, Y2

addmulloop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPXOR   Y5, Y6, Y5
	VPXOR   (DI), Y5, Y5
	VMOVDQU Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     addmulloop
	VZEROUPPER
	RET

// GF(2^16) vector multiply. Symbols are 16-bit little-endian, so a loaded
// vector interleaves low bytes (even lanes, nibbles n0/n1) and high bytes
// (odd lanes, nibbles n2/n3) of 16 symbols. The product's low byte is
// T0lo[n0]^T1lo[n1]^T2lo[n2]^T3lo[n3] and the high byte the same over the
// *hi tables (see buildNibTab65536), so each nibble contributes via one
// PSHUFB whose control selects the nibble in the target lanes and carries
// 0xff (bit 7 set => PSHUFB emits zero) in the other lanes.
//
// Register plan, shared by both loops below:
//   Y0..Y7  T0lo T0hi T1lo T1hi T2lo T2hi T3lo T3hi (16 bytes each, splat)
//   Y8      0x0f byte mask
//   Y9      0xff in odd lanes  (even-lane controls OR this in)
//   Y10     0xff in even lanes (odd-lane controls OR this in)
//   Y11-Y15 input / low nibbles / high nibbles / control scratch / acc

#define GF65536_PROLOGUE \
	MOVQ           dst+0(FP), DI  \
	MOVQ           src+8(FP), SI  \
	MOVQ           n+16(FP), CX   \
	MOVQ           tab+24(FP), DX \
	VBROADCASTI128 (DX), Y0       \
	VBROADCASTI128 16(DX), Y1     \
	VBROADCASTI128 32(DX), Y2     \
	VBROADCASTI128 48(DX), Y3     \
	VBROADCASTI128 64(DX), Y4     \
	VBROADCASTI128 80(DX), Y5     \
	VBROADCASTI128 96(DX), Y6     \
	VBROADCASTI128 112(DX), Y7    \
	MOVQ           $15, AX        \
	VMOVQ          AX, X8         \
	VPBROADCASTB   X8, Y8         \
	VPCMPEQB       Y9, Y9, Y9     \
	VPSRLW         $8, Y9, Y10    \
	VPSLLW         $8, Y9, Y9

// One 32-byte step: load, split nibbles (low nibbles Y12: n0 in even
// lanes / n2 in odd; high nibbles Y13: n1 even / n3 odd), then accumulate
// the eight table contributions into Y15 in the order
// T0lo[n0] T0hi[n0] T2lo[n2] T2hi[n2] T1lo[n1] T1hi[n1] T3lo[n3] T3hi[n3],
// the *lo shuffles landing in even lanes and the *hi shuffles in odd
// lanes. Word shifts by 8 move a nibble to the opposite lane of its
// symbol; word shifts never leak bits across symbols.
#define GF65536_STEP \
	VMOVDQU (SI), Y11     \
	VPAND   Y8, Y11, Y12  \
	VPSRLW  $4, Y11, Y13  \
	VPAND   Y8, Y13, Y13  \
	VPOR    Y9, Y12, Y14  \
	VPSHUFB Y14, Y0, Y15  \
	VPSLLW  $8, Y12, Y14  \
	VPOR    Y10, Y14, Y14 \
	VPSHUFB Y14, Y1, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPSRLW  $8, Y12, Y14  \
	VPOR    Y9, Y14, Y14  \
	VPSHUFB Y14, Y4, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPOR    Y10, Y12, Y14 \
	VPSHUFB Y14, Y5, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPOR    Y9, Y13, Y14  \
	VPSHUFB Y14, Y2, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPSLLW  $8, Y13, Y14  \
	VPOR    Y10, Y14, Y14 \
	VPSHUFB Y14, Y3, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPSRLW  $8, Y13, Y14  \
	VPOR    Y9, Y14, Y14  \
	VPSHUFB Y14, Y6, Y14  \
	VPXOR   Y14, Y15, Y15 \
	VPOR    Y10, Y13, Y14 \
	VPSHUFB Y14, Y7, Y14  \
	VPXOR   Y14, Y15, Y15

// func mulSlice65536AVX2(dst, src *byte, n int, tab *[128]byte)
// n is a positive multiple of 32 (and of the 2-byte symbol size).
TEXT ·mulSlice65536AVX2(SB), NOSPLIT, $0-32
	GF65536_PROLOGUE

mul65536loop:
	GF65536_STEP
	VMOVDQU Y15, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mul65536loop
	VZEROUPPER
	RET

// func addMulSlice65536AVX2(dst, src *byte, n int, tab *[128]byte)
// dst ^= product; n is a positive multiple of 32.
TEXT ·addMulSlice65536AVX2(SB), NOSPLIT, $0-32
	GF65536_PROLOGUE

addmul65536loop:
	GF65536_STEP
	VPXOR   (DI), Y15, Y15
	VMOVDQU Y15, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     addmul65536loop
	VZEROUPPER
	RET

// GFNI GF(2^8) kernels. Multiplication by c is the GF(2) bit matrix
// affine256[c]; VGF2P8AFFINEQB applies it to 32 bytes at once (Go operand
// order: imm8, matrix, source, destination). VEX-256 only: no ZMM, so no
// AVX-512 frequency licence and the VEX-only rule above still holds.

// func mulSlice256GFNI(dst, src *byte, n int, m uint64)
// dst[i] = c*src[i]; n is a positive multiple of 32. dst may equal src.
TEXT ·mulSlice256GFNI(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VPBROADCASTQ m+24(FP), Y1

gfnimulloop:
	VMOVDQU        (SI), Y0
	VGF2P8AFFINEQB $0, Y1, Y0, Y0
	VMOVDQU        Y0, (DI)
	ADDQ           $32, SI
	ADDQ           $32, DI
	SUBQ           $32, CX
	JNZ            gfnimulloop
	VZEROUPPER
	RET

// func addMulSlice256GFNI(dst, src *byte, n int, c uint16)
// dst[i] ^= c*src[i] for any n >= 0, so the Go wrapper is a bare call:
// 64 bytes a turn, then a 32-byte block, then the bytes left one at a
// time through the product-table row mul256[c]. c < 256.
TEXT ·addMulSlice256GFNI(SB), NOSPLIT, $0-26
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVWQZX      c+24(FP), R8
	LEAQ         ·affine256(SB), R9
	VPBROADCASTQ (R9)(R8*8), Y2
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-64, DX
	JZ           gfniaddmul32

gfniaddmulloop:
	VMOVDQU        (SI)(AX*1), Y0
	VMOVDQU        32(SI)(AX*1), Y1
	VGF2P8AFFINEQB $0, Y2, Y0, Y0
	VGF2P8AFFINEQB $0, Y2, Y1, Y1
	VPXOR          (DI)(AX*1), Y0, Y0
	VPXOR          32(DI)(AX*1), Y1, Y1
	VMOVDQU        Y0, (DI)(AX*1)
	VMOVDQU        Y1, 32(DI)(AX*1)
	ADDQ           $64, AX
	CMPQ           AX, DX
	JNE            gfniaddmulloop

gfniaddmul32:
	MOVQ           CX, DX
	SUBQ           AX, DX
	CMPQ           DX, $32
	JLT            gfniaddmulbytes
	VMOVDQU        (SI)(AX*1), Y0
	VGF2P8AFFINEQB $0, Y2, Y0, Y0
	VPXOR          (DI)(AX*1), Y0, Y0
	VMOVDQU        Y0, (DI)(AX*1)
	ADDQ           $32, AX

gfniaddmulbytes:
	CMPQ    AX, CX
	JEQ     gfniaddmuldone
	SHLQ    $8, R8
	LEAQ    ·mul256(SB), R9
	ADDQ    R8, R9

gfniaddmulbyteloop:
	MOVBLZX (SI)(AX*1), BX
	MOVB    (R9)(BX*1), BX
	XORB    BX, (DI)(AX*1)
	INCQ    AX
	CMPQ    AX, CX
	JNE     gfniaddmulbyteloop

gfniaddmuldone:
	VZEROUPPER
	RET

// func addMulRows256GFNI(dst *byte, n int, s0, s1, s2, s3 *byte, m0, m1, m2, m3 uint64)
// dst[i] ^= c0*s0[i] ^ c1*s1[i] ^ c2*s2[i] ^ c3*s3[i], one load and one
// store of dst per 32 bytes for four source rows. n is a positive
// multiple of 32. Every pointer advances by the one index AX; the loop
// takes 64 bytes a turn and a last 32-byte block on its own.
TEXT ·addMulRows256GFNI(SB), NOSPLIT, $0-80
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         s0+16(FP), R8
	MOVQ         s1+24(FP), R9
	MOVQ         s2+32(FP), R10
	MOVQ         s3+40(FP), R11
	VPBROADCASTQ m0+48(FP), Y12
	VPBROADCASTQ m1+56(FP), Y13
	VPBROADCASTQ m2+64(FP), Y14
	VPBROADCASTQ m3+72(FP), Y15
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-64, DX
	JZ           gfnirowstail

gfnirowsloop:
	VMOVDQU        (R8)(AX*1), Y0
	VMOVDQU        32(R8)(AX*1), Y1
	VMOVDQU        (R9)(AX*1), Y2
	VMOVDQU        32(R9)(AX*1), Y3
	VMOVDQU        (R10)(AX*1), Y4
	VMOVDQU        32(R10)(AX*1), Y5
	VMOVDQU        (R11)(AX*1), Y6
	VMOVDQU        32(R11)(AX*1), Y7
	VGF2P8AFFINEQB $0, Y12, Y0, Y0
	VGF2P8AFFINEQB $0, Y12, Y1, Y1
	VGF2P8AFFINEQB $0, Y13, Y2, Y2
	VGF2P8AFFINEQB $0, Y13, Y3, Y3
	VGF2P8AFFINEQB $0, Y14, Y4, Y4
	VGF2P8AFFINEQB $0, Y14, Y5, Y5
	VGF2P8AFFINEQB $0, Y15, Y6, Y6
	VGF2P8AFFINEQB $0, Y15, Y7, Y7
	VPXOR          Y2, Y0, Y0
	VPXOR          Y3, Y1, Y1
	VPXOR          Y6, Y4, Y4
	VPXOR          Y7, Y5, Y5
	VPXOR          (DI)(AX*1), Y0, Y0
	VPXOR          32(DI)(AX*1), Y1, Y1
	VPXOR          Y4, Y0, Y0
	VPXOR          Y5, Y1, Y1
	VMOVDQU        Y0, (DI)(AX*1)
	VMOVDQU        Y1, 32(DI)(AX*1)
	ADDQ           $64, AX
	CMPQ           AX, DX
	JNE            gfnirowsloop
	CMPQ           AX, CX
	JEQ            gfnirowsdone

gfnirowstail:
	VMOVDQU        (R8)(AX*1), Y0
	VMOVDQU        (R9)(AX*1), Y2
	VMOVDQU        (R10)(AX*1), Y4
	VMOVDQU        (R11)(AX*1), Y6
	VGF2P8AFFINEQB $0, Y12, Y0, Y0
	VGF2P8AFFINEQB $0, Y13, Y2, Y2
	VGF2P8AFFINEQB $0, Y14, Y4, Y4
	VGF2P8AFFINEQB $0, Y15, Y6, Y6
	VPXOR          Y2, Y0, Y0
	VPXOR          Y6, Y4, Y4
	VPXOR          (DI)(AX*1), Y0, Y0
	VPXOR          Y4, Y0, Y0
	VMOVDQU        Y0, (DI)(AX*1)

gfnirowsdone:
	VZEROUPPER
	RET
