package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fields lists every implementation under test, once, so each table-driven
// test below runs over all three.
var fields = []Field{F2, F256, F65536}

func modMask(f Field) uint16 {
	return uint16(f.Order() - 1)
}

func TestFieldMetadata(t *testing.T) {
	t.Parallel()
	tests := []struct {
		f      Field
		name   string
		bits   int
		order  int
		symbol int
	}{
		{F2, "GF(2)", 1, 2, 1},
		{F256, "GF(256)", 8, 256, 1},
		{F65536, "GF(65536)", 16, 65536, 2},
	}
	for _, tt := range tests {
		if got := tt.f.Name(); got != tt.name {
			t.Errorf("Name() = %q, want %q", got, tt.name)
		}
		if got := tt.f.Bits(); got != tt.bits {
			t.Errorf("%s: Bits() = %d, want %d", tt.name, got, tt.bits)
		}
		if got := tt.f.Order(); got != tt.order {
			t.Errorf("%s: Order() = %d, want %d", tt.name, got, tt.order)
		}
		if got := tt.f.SymbolSize(); got != tt.symbol {
			t.Errorf("%s: SymbolSize() = %d, want %d", tt.name, got, tt.symbol)
		}
	}
}

func TestAddIsXorAndSelfInverse(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			prop := func(a, b uint16) bool {
				a &= modMask(f)
				b &= modMask(f)
				s := f.Add(a, b)
				return f.Add(s, b) == a && f.Add(s, a) == b && f.Add(a, a) == 0
			}
			if err := quick.Check(prop, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			prop := func(a, b, c uint16) bool {
				a &= modMask(f)
				b &= modMask(f)
				c &= modMask(f)
				if f.Mul(a, b) != f.Mul(b, a) {
					return false
				}
				return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
			}
			if err := quick.Check(prop, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestDistributivity(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			prop := func(a, b, c uint16) bool {
				a &= modMask(f)
				b &= modMask(f)
				c &= modMask(f)
				return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
			}
			if err := quick.Check(prop, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			prop := func(a uint16) bool {
				a &= modMask(f)
				return f.Mul(a, 1) == a && f.Mul(1, a) == a && f.Mul(a, 0) == 0 && f.Mul(0, a) == 0
			}
			if err := quick.Check(prop, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestInverse(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			prop := func(a uint16) bool {
				a &= modMask(f)
				if a == 0 {
					return true
				}
				return f.Mul(a, f.Inv(a)) == 1 && f.Div(a, a) == 1
			}
			if err := quick.Check(prop, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestInverseExhaustive256(t *testing.T) {
	t.Parallel()
	for a := uint16(1); a < 256; a++ {
		if got := F256.Mul(a, F256.Inv(a)); got != 1 {
			t.Fatalf("GF(256): %d * inv(%d) = %d, want 1", a, a, got)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			defer func() {
				if recover() == nil {
					t.Error("Inv(0) did not panic")
				}
			}()
			f.Inv(0)
		})
	}
}

func TestExp256IsPrimitive(t *testing.T) {
	t.Parallel()
	// alpha = 2 must generate all 255 nonzero elements before repeating.
	seen := make(map[uint16]bool, 255)
	for i := 0; i < 255; i++ {
		v := uint16(exp256[i])
		if seen[v] {
			t.Fatalf("exp256[%d] = %d repeats an earlier value", i, v)
		}
		seen[v] = true
	}
	if len(seen) != 255 {
		t.Fatalf("alpha generated %d distinct elements, want 255", len(seen))
	}
}

func TestMulMatchesLogDefinition65536(t *testing.T) {
	t.Parallel()
	// Spot-check GF(2^16) multiplication against slow carry-less
	// polynomial multiplication mod the primitive polynomial.
	slowMul := func(a, b uint32) uint16 {
		var p uint32
		for b != 0 {
			if b&1 != 0 {
				p ^= a
			}
			a <<= 1
			if a&0x10000 != 0 {
				a ^= poly65536
			}
			b >>= 1
		}
		return uint16(p)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a := uint16(r.Intn(65536))
		b := uint16(r.Intn(65536))
		if got, want := F65536.Mul(a, b), slowMul(uint32(a), uint32(b)); got != want {
			t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestMulMatchesSlow256(t *testing.T) {
	t.Parallel()
	slowMul := func(a, b uint32) uint16 {
		var p uint32
		for b != 0 {
			if b&1 != 0 {
				p ^= a
			}
			a <<= 1
			if a&0x100 != 0 {
				a ^= poly256
			}
			b >>= 1
		}
		return uint16(p)
	}
	for a := uint32(0); a < 256; a++ {
		for b := uint32(0); b < 256; b++ {
			if got, want := F256.Mul(uint16(a), uint16(b)), slowMul(a, b); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func randPayload(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestBulkKernelsMatchScalarOps(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(42))
			const n = 64 // even, satisfies GF(2^16) symbol alignment
			for trial := 0; trial < 50; trial++ {
				src := randPayload(r, n)
				dst := randPayload(r, n)
				c := f.Rand(r)

				// AddMulSlice vs per-symbol reference.
				want := make([]byte, n)
				copy(want, dst)
				addMulRef(f, want, src, c)
				got := make([]byte, n)
				copy(got, dst)
				f.AddMulSlice(got, src, c)
				if string(got) != string(want) {
					t.Fatalf("AddMulSlice(c=%d) mismatch", c)
				}

				// MulSlice vs reference.
				want2 := make([]byte, n)
				mulRef(f, want2, src, c)
				got2 := make([]byte, n)
				f.MulSlice(got2, src, c)
				if string(got2) != string(want2) {
					t.Fatalf("MulSlice(c=%d) mismatch", c)
				}

				// AddSlice is XOR.
				got3 := make([]byte, n)
				copy(got3, dst)
				f.AddSlice(got3, src)
				for i := range got3 {
					if got3[i] != dst[i]^src[i] {
						t.Fatalf("AddSlice byte %d: got %d want %d", i, got3[i], dst[i]^src[i])
					}
				}
			}
		})
	}
}

// addMulRef is a slow per-symbol reference for AddMulSlice.
func addMulRef(f Field, dst, src []byte, c uint16) {
	switch f.SymbolSize() {
	case 1:
		if f.Bits() == 1 {
			// GF(2) treats each byte as 8 parallel symbols.
			if c&1 == 1 {
				for i := range dst {
					dst[i] ^= src[i]
				}
			}
			return
		}
		for i := range dst {
			dst[i] = byte(uint16(dst[i]) ^ f.Mul(uint16(src[i]), c))
		}
	case 2:
		for i := 0; i+1 < len(dst); i += 2 {
			s := uint16(src[i]) | uint16(src[i+1])<<8
			d := uint16(dst[i]) | uint16(dst[i+1])<<8
			d ^= f.Mul(s, c)
			dst[i] = byte(d)
			dst[i+1] = byte(d >> 8)
		}
	}
}

// mulRef is a slow per-symbol reference for MulSlice.
func mulRef(f Field, dst, src []byte, c uint16) {
	for i := range dst {
		dst[i] = 0
	}
	addMulRef(f, dst, src, c)
}

func TestMulSliceAliasing(t *testing.T) {
	t.Parallel()
	for _, f := range fields {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(7))
			src := randPayload(r, 32)
			c := f.RandNonZero(r)
			want := make([]byte, 32)
			f.MulSlice(want, src, c)
			got := make([]byte, 32)
			copy(got, src)
			f.MulSlice(got, got, c) // exact aliasing must be safe
			if string(got) != string(want) {
				t.Fatal("MulSlice with dst==src differs from non-aliased result")
			}
		})
	}
}

func TestBulkKernelLengthMismatchPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("AddSlice with mismatched lengths did not panic")
		}
	}()
	F256.AddSlice(make([]byte, 4), make([]byte, 5))
}

func TestOddLengthPanics65536(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("GF(65536) kernel with odd-length slice did not panic")
		}
	}()
	F65536.AddMulSlice(make([]byte, 3), make([]byte, 3), 2)
}

func TestRandNonZeroNeverZero(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(3))
	for _, f := range fields {
		for i := 0; i < 1000; i++ {
			if f.RandNonZero(r) == 0 {
				t.Fatalf("%s: RandNonZero returned 0", f.Name())
			}
		}
	}
}

func TestRandInRange(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(4))
	for _, f := range fields {
		for i := 0; i < 1000; i++ {
			if v := f.Rand(r); int(v) >= f.Order() {
				t.Fatalf("%s: Rand returned %d >= order %d", f.Name(), v, f.Order())
			}
		}
	}
}

func BenchmarkAddMulSlice256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src := randPayload(r, 4096)
	dst := randPayload(r, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		F256.AddMulSlice(dst, src, 0x53)
	}
}

func BenchmarkAddMulSlice65536(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src := randPayload(r, 4096)
	dst := randPayload(r, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		F65536.AddMulSlice(dst, src, 0x5353)
	}
}

func BenchmarkMulScalar256(b *testing.B) {
	var acc uint16
	for i := 0; i < b.N; i++ {
		acc ^= F256.Mul(uint16(i)&0xFF, 0x53)
	}
	_ = acc
}
