//go:build amd64 && !purego

package gf

import (
	"bytes"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
)

// A legacy-SSE instruction (say MOVQ AX, X2) executed while the YMM upper
// halves are dirty costs an SSE/AVX state transition: on the kernels'
// short calls that stall was ~140 ns, more than a 1 KiB multiply. The
// AVX2 kernels therefore stay VEX-encoded throughout, and this test
// guards that by reading the assembly source.

var (
	vecReg = regexp.MustCompile(`\b[XY](1[0-5]|[0-9])\b`)
	ymmReg = regexp.MustCompile(`\bY(1[0-5]|[0-9])\b`)
)

// legacySSEInAVX returns, for every TEXT block that names a Y register,
// each instruction with an X or Y operand whose mnemonic is not
// VEX-encoded (does not start with V). Macro invocations are expanded
// from the file's #define bodies first, so a prologue macro is checked
// inside every kernel that uses it.
func legacySSEInAVX(src string) []string {
	macros := map[string][]string{}
	type block struct {
		name  string
		insts []string
	}
	var blocks []*block
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if c := strings.Index(line, "//"); c >= 0 {
			line = line[:c]
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#define") {
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			name := f[1]
			for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
				i++
				line = strings.TrimSpace(lines[i])
				if inst := strings.TrimSpace(strings.TrimSuffix(line, `\`)); inst != "" {
					macros[name] = append(macros[name], inst)
				}
			}
			continue
		}
		switch {
		case strings.HasPrefix(line, "TEXT"):
			blocks = append(blocks, &block{name: line})
		case len(blocks) == 0, line == "", strings.HasSuffix(line, ":"), strings.HasPrefix(line, "#"):
		default:
			b := blocks[len(blocks)-1]
			if body, ok := macros[line]; ok {
				b.insts = append(b.insts, body...)
			} else {
				b.insts = append(b.insts, line)
			}
		}
	}

	var bad []string
	for _, b := range blocks {
		if !ymmReg.MatchString(strings.Join(b.insts, "\n")) {
			continue
		}
		for _, inst := range b.insts {
			f := strings.Fields(inst)
			if vecReg.MatchString(strings.Join(f[1:], " ")) && !strings.HasPrefix(f[0], "V") {
				bad = append(bad, b.name+": "+strings.Join(f, " "))
			}
		}
	}
	return bad
}

func TestAVX2KernelsVEXOnly(t *testing.T) {
	src, err := os.ReadFile("kernels_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range legacySSEInAVX(string(src)) {
		t.Errorf("legacy-SSE instruction in an AVX2 kernel: %s", inst)
	}
}

// TestLegacySSEDetector keeps the guard above from passing vacuously: it
// must flag a non-VEX move into an XMM register in a YMM kernel, both
// inline and inside an expanded macro, and must ignore kernels that never
// touch a Y register.
func TestLegacySSEDetector(t *testing.T) {
	src := `
#define PROLOGUE \
	MOVQ $15, AX \
	MOVQ AX, X8

TEXT ·inline(SB), NOSPLIT, $0-8
	VBROADCASTI128 (DX), Y0
	MOVQ	AX, X2 // mask
	VPBROADCASTB X2, Y2
	VZEROUPPER
	RET

TEXT ·viaMacro(SB), NOSPLIT, $0-8
	VBROADCASTI128 (DX), Y0
	PROLOGUE
loop:
	VPXOR Y0, Y8, Y8
	RET

TEXT ·sseOnly(SB), NOSPLIT, $0-8
	MOVQ AX, X2
	PXOR X2, X2
	RET
`
	got := legacySSEInAVX(src)
	want := []string{
		"TEXT ·inline(SB), NOSPLIT, $0-8: MOVQ AX, X2",
		"TEXT ·viaMacro(SB), NOSPLIT, $0-8: MOVQ AX, X8",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("detector flagged %q, want %q", got, want)
	}
}

// gfniLens are the lengths every amd64 GF(2^8) kernel is checked at:
// empty, a tail alone, one block, a block and a tail, the 64-byte
// unroll, an odd block count, and the 1 KiB payload with and without
// a tail.
var gfniLens = []int{0, 1, 31, 32, 33, 64, 96, 1024, 1056}

// checkKernels256 compares one pair of single-row GF(2^8) kernels with
// the scalar reference for every coefficient, including MulSlice with
// dst == src.
func checkKernels256(t *testing.T, mul, addMul func(dst, src []byte, c uint16)) {
	t.Helper()
	r := rand.New(rand.NewSource(23))
	for _, n := range gfniLens {
		src := randBytes(F256, n, r)
		base := randBytes(F256, n, r)
		for c := uint16(0); c < 256; c++ {
			got, want := bytes.Clone(base), bytes.Clone(base)
			addMul(got, src, c)
			refAddMulSlice256(want, src, c)
			if !bytes.Equal(got, want) {
				t.Fatalf("AddMulSlice(c=%d, n=%d) != reference", c, n)
			}
			mul(got, src, c)
			refMulSlice256(want, src, c)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulSlice(c=%d, n=%d) != reference", c, n)
			}
			got, want = bytes.Clone(src), bytes.Clone(src)
			mul(got, got, c)
			refMulSlice256(want, want, c)
			if !bytes.Equal(got, want) {
				t.Fatalf("aliased MulSlice(c=%d, n=%d) != reference", c, n)
			}
		}
	}
}

// TestAVX2Kernels256MatchReference calls the PSHUFB kernels directly: on
// a GFNI host the dispatcher no longer reaches them, and a CPU without
// GFNI still runs them.
func TestAVX2Kernels256MatchReference(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU or OS lacks AVX2: the PSHUFB kernels cannot run here")
	}
	checkKernels256(t, mulSlice256Asm, addMulSlice256Asm)
}

func TestGFNIKernels256MatchReference(t *testing.T) {
	if !cpuHasAVX2() || !cpuHasGFNI() {
		t.Skip("CPU lacks GFNI (CPUID leaf 7 ECX bit 8) or AVX2: the affine kernels cannot run here")
	}
	checkKernels256(t, mulSlice256GFNIAsm, addMulSlice256GFNIAsm)
}

// TestGFNIRowsKernelMatchesReference drives the four-row kernel through
// Dot.flushFused with every coefficient in every slot and every row
// count from one to four, against a loop of the scalar reference.
func TestGFNIRowsKernelMatchesReference(t *testing.T) {
	if !cpuHasAVX2() || !cpuHasGFNI() {
		t.Skip("CPU lacks GFNI (CPUID leaf 7 ECX bit 8) or AVX2: the affine kernels cannot run here")
	}
	r := rand.New(rand.NewSource(29))
	for _, n := range gfniLens {
		rows := make([][]byte, 4)
		for i := range rows {
			rows[i] = randBytes(F256, n, r)
		}
		base := randBytes(F256, n, r)
		for k := 1; k <= 4; k++ {
			for c := 0; c < 256; c++ {
				got, want := bytes.Clone(base), bytes.Clone(base)
				var d Dot
				d.Reset(F256, got)
				d.fused = true
				for i := 0; i < k; i++ {
					ci := uint16((c+67*i)%255 + 1) // nonzero, distinct per slot
					d.Add(rows[i], ci)
					refAddMulSlice256(want, rows[i], ci)
				}
				d.Flush()
				if !bytes.Equal(got, want) {
					t.Fatalf("fused rows=%d c=%d n=%d != reference", k, c, n)
				}
			}
		}
	}
}

func TestAccelNamesGFNI(t *testing.T) {
	if !cpuHasAVX2() || !cpuHasGFNI() {
		t.Skip("CPU lacks GFNI (CPUID leaf 7 ECX bit 8) or AVX2: dispatch stays below gfni")
	}
	if Accel() != "gfni" || !fused256 {
		t.Fatalf("Accel() = %q, fused = %v on a GFNI host; want \"gfni\", true", Accel(), fused256)
	}
}
