package gf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// The kernel suite checks the dispatched bulk kernels against per-element
// scalar arithmetic — the ground truth — for every coefficient (GF(2) and
// GF(2^8) exhaustively, GF(2^16) sampled plus edge values), lengths 0–64
// plus misaligned tails around the 8- and 32-byte kernel strides, and
// exact aliasing (dst == src). `go test -tags purego` runs the same suite
// over the scalar reference dispatch, so both paths stay verified.

// kernelLens are the payload lengths under test: everything in [0,64]
// plus tails around the vector strides. GF(2^16) tests round up to even.
func kernelLens() []int {
	lens := make([]int, 0, 80)
	for n := 0; n <= 64; n++ {
		lens = append(lens, n)
	}
	for _, n := range []int{65, 95, 96, 97, 127, 128, 129, 255, 256, 257, 1023, 1024, 4096} {
		lens = append(lens, n)
	}
	return lens
}

// evenLen rounds n to the field's symbol multiple.
func evenLen(f Field, n int) int { return n - n%f.SymbolSize() }

// coeffsFor returns the scalar sweep for a field: exhaustive when small,
// sampled plus structural edge cases for GF(2^16).
func coeffsFor(f Field, r *rand.Rand) []uint16 {
	if f.Order() <= 256 {
		cs := make([]uint16, f.Order())
		for i := range cs {
			cs[i] = uint16(i)
		}
		return cs
	}
	cs := []uint16{0, 1, 2, 3, 255, 256, 257, 32768, 65535}
	for i := 0; i < 24; i++ {
		cs = append(cs, f.Rand(r))
	}
	return cs
}

// scalarMulSym computes the symbol-wise product of buf by c using only
// scalar Field ops, as the reference result.
func scalarMulSym(f Field, buf []byte, c uint16) []byte {
	out := make([]byte, len(buf))
	if f.SymbolSize() == 1 {
		for i, s := range buf {
			out[i] = byte(f.Mul(c, uint16(s)))
		}
		return out
	}
	for i := 0; i+1 < len(buf); i += 2 {
		s := uint16(buf[i]) | uint16(buf[i+1])<<8
		p := f.Mul(c, s)
		out[i] = byte(p)
		out[i+1] = byte(p >> 8)
	}
	return out
}

// randBytes fills a buffer with random bytes, with occasional zero
// symbols so the GF(2^16) zero-skip branch is exercised.
func randBytes(f Field, n int, r *rand.Rand) []byte {
	buf := make([]byte, n)
	r.Read(buf)
	if f.SymbolSize() == 2 {
		for i := 0; i+1 < n; i += 2 {
			if r.Intn(8) == 0 {
				buf[i], buf[i+1] = 0, 0
			}
		}
	} else {
		for i := range buf {
			if r.Intn(8) == 0 {
				buf[i] = 0
			}
		}
	}
	if f.Bits() == 1 {
		for i := range buf {
			buf[i] &= 1 // GF(2) symbols are 0/1 per byte at the API level
		}
	}
	return buf
}

func TestKernelMatchesScalar(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(42))
			coeffs := coeffsFor(f, r)
			for _, n := range kernelLens() {
				n = evenLen(f, n)
				src := randBytes(f, n, r)
				base := randBytes(f, n, r)
				for _, c := range coeffs {
					prod := scalarMulSym(f, src, c)

					// MulSlice == scalar product.
					dst := append([]byte(nil), base...)
					f.MulSlice(dst, src, c)
					if !bytes.Equal(dst, prod) {
						t.Fatalf("MulSlice(c=%d, n=%d) diverges from scalar Mul", c, n)
					}

					// AddMulSlice == dst ^ scalar product.
					dst = append([]byte(nil), base...)
					f.AddMulSlice(dst, src, c)
					for i := range dst {
						if dst[i] != base[i]^prod[i] {
							t.Fatalf("AddMulSlice(c=%d, n=%d)[%d] = %#x, want %#x", c, n, i, dst[i], base[i]^prod[i])
						}
					}

					// AddSlice == XOR.
					dst = append([]byte(nil), base...)
					f.AddSlice(dst, src)
					for i := range dst {
						if dst[i] != base[i]^src[i] {
							t.Fatalf("AddSlice(n=%d)[%d] = %#x, want %#x", n, i, dst[i], base[i]^src[i])
						}
					}
				}
			}
		})
	}
}

func TestKernelExactAliasing(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(7))
			coeffs := coeffsFor(f, r)
			for _, n := range kernelLens() {
				n = evenLen(f, n)
				orig := randBytes(f, n, r)
				for _, c := range coeffs {
					prod := scalarMulSym(f, orig, c)

					// dst == src: MulSlice scales in place.
					buf := append([]byte(nil), orig...)
					f.MulSlice(buf, buf, c)
					if !bytes.Equal(buf, prod) {
						t.Fatalf("aliased MulSlice(c=%d, n=%d) diverges", c, n)
					}

					// dst == src: AddMulSlice computes (1+c)·x in place.
					buf = append([]byte(nil), orig...)
					f.AddMulSlice(buf, buf, c)
					for i := range buf {
						if buf[i] != orig[i]^prod[i] {
							t.Fatalf("aliased AddMulSlice(c=%d, n=%d)[%d] wrong", c, n, i)
						}
					}

					// dst == src: AddSlice zeroes (x+x = 0).
					buf = append([]byte(nil), orig...)
					f.AddSlice(buf, buf)
					for i := range buf {
						if buf[i] != 0 {
							t.Fatalf("aliased AddSlice(n=%d)[%d] = %#x, want 0", n, i, buf[i])
						}
					}
				}
			}
		})
	}
}

// packVec lays a vector of field elements out in f's symbol layout: one
// 0/1 byte per element over GF(2), one byte over GF(2^8), a little-endian
// uint16 over GF(2^16). That is how the RLNC codec stores coefficients.
func packVec(f Field, v []uint16) []byte {
	sym := f.SymbolSize()
	out := make([]byte, sym*len(v))
	for j, x := range v {
		if sym == 2 {
			binary.LittleEndian.PutUint16(out[2*j:], x)
		} else {
			out[j] = byte(x)
		}
	}
	return out
}

// TestCoeffKernelsMatchScalar checks the slice kernels on coefficient
// vectors in symbol layout against per-element Add/Mul: the codec keeps
// coefficients in that layout and runs them through MulSlice and
// AddMulSlice, so a GF(2) 0/1 byte must stay 0/1 and GF(2^16) elements
// must combine little-endian.
func TestCoeffKernelsMatchScalar(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(11))
			coeffs := coeffsFor(f, r)
			for n := 0; n <= 255; n++ {
				src := make([]uint16, n)
				base := make([]uint16, n)
				for j := range src {
					src[j] = f.Rand(r)
					base[j] = f.Rand(r)
				}
				srcB, baseB := packVec(f, src), packVec(f, base)
				check := func(op string, c uint16, got []byte, want func(j int) uint16) {
					t.Helper()
					wantB := make([]uint16, n)
					for j := range wantB {
						wantB[j] = want(j)
					}
					if !bytes.Equal(got, packVec(f, wantB)) {
						t.Fatalf("%s(c=%d, n=%d) = %x, want %x", op, c, n, got, packVec(f, wantB))
					}
				}
				for _, c := range coeffs {
					dst := bytes.Clone(baseB)
					f.AddMulSlice(dst, srcB, c)
					check("AddMulSlice", c, dst, func(j int) uint16 { return f.Add(base[j], f.Mul(c, src[j])) })

					dst = bytes.Clone(baseB)
					f.MulSlice(dst, dst, c)
					check("MulSlice", c, dst, func(j int) uint16 { return f.Mul(c, base[j]) })

					// Exact aliasing: dst==src computes (1+c)·x.
					dst = bytes.Clone(baseB)
					f.AddMulSlice(dst, dst, c)
					check("aliased AddMulSlice", c, dst, func(j int) uint16 { return f.Add(base[j], f.Mul(c, base[j])) })
				}
			}
		})
	}
}

// TestRefKernelsMatchDispatch pins the exported reference entry points to
// the dispatched kernels — under the default build this is a genuine
// differential test of asm/word kernels against the seed scalar loops.
func TestRefKernelsMatchDispatch(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(3))
	for _, f := range []Field{F256, F65536} {
		for _, n := range kernelLens() {
			n = evenLen(f, n)
			src := randBytes(f, n, r)
			base := randBytes(f, n, r)
			for _, c := range coeffsFor(f, r) {
				got := append([]byte(nil), base...)
				want := append([]byte(nil), base...)
				f.AddMulSlice(got, src, c)
				RefAddMulSlice(f, want, src, c)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s AddMulSlice(c=%d, n=%d) != reference", f.Name(), c, n)
				}
				got = append([]byte(nil), base...)
				want = append([]byte(nil), base...)
				f.MulSlice(got, src, c)
				RefMulSlice(f, want, src, c)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s MulSlice(c=%d, n=%d) != reference", f.Name(), c, n)
				}
				got = append([]byte(nil), base...)
				want = append([]byte(nil), base...)
				f.AddSlice(got, src)
				RefAddSlice(f, want, src)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s AddSlice(n=%d) != reference", f.Name(), n)
				}
			}
		}
	}
}

func FuzzAddMulSlice256(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint16(0x57))
	f.Fuzz(func(t *testing.T, dst, src []byte, c uint16) {
		n := len(dst)
		if len(src) < n {
			n = len(src)
		}
		dst, src = dst[:n], src[:n]
		want := append([]byte(nil), dst...)
		RefAddMulSlice(F256, want, src, c)
		got := append([]byte(nil), dst...)
		F256.AddMulSlice(got, src, c)
		if !bytes.Equal(got, want) {
			t.Fatalf("AddMulSlice(c=%d, n=%d) != reference", c, n)
		}
	})
}

func FuzzAddMulSlice65536(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1}, uint16(0x1234))
	f.Fuzz(func(t *testing.T, dst, src []byte, c uint16) {
		n := len(dst)
		if len(src) < n {
			n = len(src)
		}
		n &^= 1
		dst, src = dst[:n], src[:n]
		want := append([]byte(nil), dst...)
		RefAddMulSlice(F65536, want, src, c)
		got := append([]byte(nil), dst...)
		F65536.AddMulSlice(got, src, c)
		if !bytes.Equal(got, want) {
			t.Fatalf("AddMulSlice(c=%d, n=%d) != reference", c, n)
		}
	})
}

// ---- Kernel benchmarks ----
//
// BenchmarkAddMulSlice256 is the acceptance benchmark for the fast path;
// the *Ref* variants measure the seed scalar loops for the speedup ratio
// recorded in BENCH_rlnc.json by cmd/ncast-perf.

func benchSlices(n int) (dst, src []byte) {
	dst = make([]byte, n)
	src = make([]byte, n)
	rand.New(rand.NewSource(1)).Read(src)
	return dst, src
}

// BenchmarkAddMulSlice256 (the acceptance benchmark) lives in gf_test.go
// from the seed; the Ref variants here measure the same shapes through the
// scalar reference path for the speedup ratio.

// benchAddMulSizes runs addMul over a size sweep. The 32 and 64 B rows
// (64 B is the tiny-packets payload) are dominated by the per-call fixed
// cost, the kilobyte rows by the vector loop.
func benchAddMulSizes(b *testing.B, addMul func(dst, src []byte)) {
	for _, n := range []int{32, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dst, src := benchSlices(n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				addMul(dst, src)
			}
		})
	}
}

func BenchmarkAddMulSlice256Sizes(b *testing.B) {
	benchAddMulSizes(b, func(dst, src []byte) { F256.AddMulSlice(dst, src, 0x57) })
}

func BenchmarkAddMulSlice256Ref(b *testing.B) {
	benchAddMulSizes(b, func(dst, src []byte) { RefAddMulSlice(F256, dst, src, 0x57) })
}

func BenchmarkAddMulSlice65536Sizes(b *testing.B) {
	benchAddMulSizes(b, func(dst, src []byte) { F65536.AddMulSlice(dst, src, 0x1234) })
}

func BenchmarkMulSlice256(b *testing.B) {
	dst, src := benchSlices(1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		F256.MulSlice(dst, src, 0x57)
	}
}

func BenchmarkAddSlice(b *testing.B) {
	dst, src := benchSlices(1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		F256.AddSlice(dst, src)
	}
}

func BenchmarkAddSliceRef(b *testing.B) {
	dst, src := benchSlices(1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		RefAddSlice(F256, dst, src)
	}
}

func BenchmarkAddMulSlice65536Ref(b *testing.B) {
	benchAddMulSizes(b, func(dst, src []byte) { RefAddMulSlice(F65536, dst, src, 0x1234) })
}

// TestTab65536CacheStable pins the cross-call amortization contract of the
// GF(2^16) nibble-table cache: a second request for the same coefficient
// returns the same (immutable) table, and every cached table matches a
// fresh build.
func TestTab65536CacheStable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, c := range coeffsFor(F65536, r) {
		if c == 0 {
			continue
		}
		first := tab65536For(c)
		if again := tab65536For(c); again != first {
			t.Fatalf("c=%#x: second lookup returned a different table pointer", c)
		}
		var want [128]byte
		buildNibTab65536(c, &want)
		if *first != want {
			t.Fatalf("c=%#x: cached table differs from fresh build", c)
		}
	}
}

// dotLens are the row lengths for the Dot tests: empty, a tail alone,
// whole 32-byte blocks, and blocks with a tail. GF(2^16) rounds them
// down to even.
var dotLens = []int{0, 1, 31, 32, 33, 64, 96, 1024, 1056}

// TestDotMatchesRowLoop checks Dot against a loop of RefAddMulSlice on
// every field, for every row count from 0 to h+1 (h = 16) with zero and
// unit coefficients mixed in, through both flush paths: the platform's
// choice (fused on a GFNI host) and the per-row loop.
func TestDotMatchesRowLoop(t *testing.T) {
	t.Parallel()
	const h = 16
	r := rand.New(rand.NewSource(17))
	for _, f := range fields {
		for _, n := range dotLens {
			n = evenLen(f, n)
			rows := make([][]byte, h+1)
			for i := range rows {
				rows[i] = randBytes(f, n, r)
			}
			base := randBytes(f, n, r)
			for k := 0; k <= h+1; k++ {
				cs := make([]uint16, k)
				for i := range cs {
					switch r.Intn(4) {
					case 0:
						cs[i] = 0
					case 1:
						cs[i] = 1
					default:
						cs[i] = f.Rand(r)
					}
				}
				want := bytes.Clone(base)
				for i, c := range cs {
					RefAddMulSlice(f, want, rows[i], c)
				}
				for _, loop := range []bool{false, true} {
					got := bytes.Clone(base)
					var d Dot
					d.Reset(f, got)
					if loop {
						d.fused = false
					}
					for i, c := range cs {
						d.Add(rows[i], c)
					}
					d.Flush()
					if !bytes.Equal(got, want) {
						t.Fatalf("%s Dot(rows=%d, n=%d, loop=%v) != row loop", f.Name(), k, n, loop)
					}
				}
			}
		}
	}
}

// TestAffine256MatchesMul emulates VGF2P8AFFINEQB in Go on every
// coefficient and byte, so the matrix layout is checked on any host,
// GFNI or not: output bit i is the parity of x AND byte 7-i.
func TestAffine256MatchesMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		m := affine256[c]
		for x := 0; x < 256; x++ {
			var y byte
			for i := 0; i < 8; i++ {
				row := byte(m >> (8 * (7 - i)))
				y |= byte(bits.OnesCount8(row&byte(x))&1) << i
			}
			if y != mul256[c][x] {
				t.Fatalf("affine256[%d] maps %#x to %#x, want %#x", c, x, y, mul256[c][x])
			}
		}
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot.Add with a short row did not panic")
		}
	}()
	var d Dot
	d.Reset(F256, make([]byte, 64))
	d.Add(make([]byte, 63), 7)
}

// BenchmarkDot256 times four-row GF(2^8) dot products at the
// tiny-packets and bulk payload sizes, through the platform's flush and
// through the per-row loop. b.SetBytes counts every source byte.
func BenchmarkDot256(b *testing.B) {
	for _, n := range []int{64, 1024} {
		for _, loop := range []bool{false, true} {
			b.Run(fmt.Sprintf("rows=4/n=%d/loop=%v", n, loop), func(b *testing.B) {
				dst := make([]byte, n)
				rows := make([][]byte, 4)
				for i := range rows {
					_, rows[i] = benchSlices(n)
				}
				b.SetBytes(int64(4 * n))
				var d Dot
				for i := 0; i < b.N; i++ {
					d.Reset(F256, dst)
					d.fused = d.fused && !loop
					for j, row := range rows {
						d.Add(row, uint16(0x57+j))
					}
					d.Flush()
				}
			})
		}
	}
}
