package rlnc

import (
	"bytes"
	"math/rand"
	"testing"

	"ncast/internal/gf"
)

// refRank is the rank over f of the coefficient vectors in rows, by a plain
// Gaussian elimination on copies of them, one field operation at a time:
// the engine tests' independent reference, sharing no code with
// genDecoder.
func refRank(f gf.Field, rows [][]uint16) int {
	m := make([][]uint16, len(rows))
	for i, row := range rows {
		m[i] = append([]uint16(nil), row...)
	}
	r := 0
	for c := 0; len(m) > 0 && c < len(m[0]) && r < len(m); c++ {
		p := r
		for p < len(m) && m[p][c] == 0 {
			p++
		}
		if p == len(m) {
			continue
		}
		m[r], m[p] = m[p], m[r]
		inv := f.Inv(m[r][c])
		for i := r + 1; i < len(m); i++ {
			if m[i][c] == 0 {
				continue
			}
			k := f.Mul(m[i][c], inv)
			for j := c; j < len(m[i]); j++ {
				m[i][j] = f.Add(m[i][j], f.Mul(k, m[r][j]))
			}
		}
		r++
	}
	return r
}

// engineHarness feeds hand-built packets to one genDecoder and, after
// every add, checks the engine against refRank — an independent
// coefficient-only elimination.
type engineHarness struct {
	t   *testing.T
	f   gf.Field
	src [][]byte
	e   *genDecoder
	fed [][]uint16 // coefficient vector of every packet added so far
}

func newEngineHarness(t *testing.T, f gf.Field, r *rand.Rand, h, size int) *engineHarness {
	e := newGenDecoder(f, h, size)
	return &engineHarness{
		t: t, f: f, src: randSource(r, h, size),
		e: &e,
	}
}

// coded builds the packet whose coefficient vector is coeff.
func (eh *engineHarness) coded(coeff []uint16) *Packet {
	p := &Packet{Coeff: packCoeff(eh.f, coeff), Payload: make([]byte, len(eh.src[0]))}
	for i, c := range coeff {
		eh.f.AddMulSlice(p.Payload, eh.src[i], c)
	}
	return p
}

// systematic builds source packet i as the wire delivers it: flagged,
// with a coefficient vector the decoder must not rely on.
func (eh *engineHarness) systematic(i int) *Packet {
	return &Packet{Sys: true, SysIdx: uint16(i), Payload: eh.src[i]}
}

// add feeds p and checks every invariant the eliminator maintains: the
// innovative verdict and the rank agree with refRank of everything
// fed so far; each installed row is zero left of its pivot and 1 at it;
// every row's padding past its coefficients stays zero; and at full rank the coefficient matrix is the identity and the rows
// are the exact source payloads, with no further call needed.
func (eh *engineHarness) add(p *Packet) bool {
	t, e := eh.t, eh.e
	t.Helper()
	coeff := unpackCoeff(eh.f, p.Coeff)
	if p.Sys {
		coeff = make([]uint16, e.h)
		coeff[p.SysIdx] = 1
	}
	eh.fed = append(eh.fed, coeff)
	before := e.rank
	innovative, err := e.add(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := refRank(eh.f, eh.fed); e.rank != want {
		t.Fatalf("after %d packets: rank %d, reference rank %d", len(eh.fed), e.rank, want)
	}
	if innovative != (e.rank == before+1) {
		t.Fatalf("after %d packets: innovative=%v but rank went %d -> %d", len(eh.fed), innovative, before, e.rank)
	}
	pivotAt := make([]int, e.rank)
	for i := range pivotAt {
		pivotAt[i] = -1
	}
	for c, s := range e.pivotOf {
		if s < 0 {
			continue
		}
		if int(s) >= e.rank || pivotAt[s] >= 0 {
			t.Fatalf("column %d claims slot %d (rank %d, slot's pivot %d)", c, s, e.rank, pivotAt[s])
		}
		pivotAt[s] = c
	}
	for s, piv := range pivotAt {
		if piv < 0 {
			t.Fatalf("slot %d of %d has no pivot column", s, e.rank)
		}
		row := unpackCoeff(eh.f, e.coeffs(s))
		for c := 0; c < piv; c++ {
			if row[c] != 0 {
				t.Fatalf("slot %d nonzero at column %d left of pivot %d: %v", s, c, piv, row)
			}
		}
		if row[piv] != 1 {
			t.Fatalf("slot %d pivot entry = %d, want 1", s, row[piv])
		}
	}
	for s := 0; e.arena != nil && s < e.h; s++ {
		if pad := e.row(s)[e.size+e.clen:]; !bytes.Equal(pad, make([]byte, len(pad))) {
			t.Fatalf("slot %d padding dirty: %x", s, pad)
		}
	}
	if e.complete() {
		for s, piv := range pivotAt {
			row := unpackCoeff(eh.f, e.coeffs(s))
			for c, v := range row {
				if (c == piv && v != 1) || (c != piv && v != 0) {
					t.Fatalf("full rank: slot %d (pivot %d) not a unit vector: %v", s, piv, row)
				}
			}
		}
		got, err := e.source()
		if err != nil {
			t.Fatal(err)
		}
		for i := range eh.src {
			if !bytes.Equal(got[i], eh.src[i]) {
				t.Fatalf("full rank: source packet %d wrong", i)
			}
		}
	}
	return innovative
}

// TestEngineOutOfOrderPivots: pivots created in column order 3, 1, 0, 2
// (the packet for column 3 arrives before anything touching columns
// 0-2), with overlaps that force both forward elimination and
// back-substitution.
func TestEngineOutOfOrderPivots(t *testing.T) {
	t.Parallel()
	for _, f := range []gf.Field{gf.F2, gf.F256, gf.F65536} {
		eh := newEngineHarness(t, f, rand.New(rand.NewSource(3)), 4, 4)
		for i, coeff := range [][]uint16{
			{0, 0, 0, 1},
			{0, 1, 0, 1},
			{1, 1, 0, 1},
			{1, 1, 1, 1},
		} {
			if !eh.add(eh.coded(coeff)) {
				t.Fatalf("%s: row %d not innovative", f.Name(), i)
			}
		}
		if !eh.e.complete() {
			t.Fatalf("%s: rank = %d, want 4", f.Name(), eh.e.rank)
		}
	}
}

// TestEngineRandomInvariant hammers the engine with seeded mixes of
// systematic, dense coded, sparse coded, all-zero and duplicate packets
// — sparse vectors over GF(2) being the likeliest to create pivots out
// of order — and checks the invariants after every insertion.
func TestEngineRandomInvariant(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(99))
	for _, f := range []gf.Field{gf.F2, gf.F256, gf.F65536} {
		for trial := 0; trial < 20; trial++ {
			const h = 12
			eh := newEngineHarness(t, f, r, h, 4)
			var last *Packet
			for n := 0; n < 8*h && !eh.e.complete(); n++ {
				var p *Packet
				switch kind := r.Intn(8); {
				case kind == 0 && last != nil:
					p = last // duplicate
				case kind <= 2:
					p = eh.systematic(r.Intn(h))
				case kind == 3:
					coeff := make([]uint16, h) // sparse; sometimes all-zero
					for k := r.Intn(3); k > 0; k-- {
						coeff[r.Intn(h)] = f.Rand(r)
					}
					p = eh.coded(coeff)
				default:
					coeff := make([]uint16, h)
					for i := range coeff {
						coeff[i] = f.Rand(r)
					}
					p = eh.coded(coeff)
				}
				eh.add(p)
				last = p
			}
			if !eh.e.complete() {
				t.Fatalf("%s trial %d: stuck at rank %d", f.Name(), trial, eh.e.rank)
			}
			// A complete engine has nothing to learn, whatever arrives.
			if eh.add(last) || eh.add(eh.systematic(0)) {
				t.Fatalf("%s trial %d: packet innovative at full rank", f.Name(), trial)
			}
		}
	}
}
