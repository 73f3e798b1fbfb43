//go:build amd64 && !purego

package gf

import (
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
