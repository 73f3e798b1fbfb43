package rlnc

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ncast/internal/gf"
)

// absorbStream is a seeded packet stream for one generation of h packets
// that exercises every outcome of an add: systematic installs, a
// duplicate systematic packet, coded packets until past full rank, the
// packet that closes the generation, redundant packets after it, a
// packet for another generation and a malformed one.
func absorbStream(t *testing.T, f gf.Field, h, size int, r *rand.Rand) []*Packet {
	t.Helper()
	enc, err := NewEncoder(f, 0, randSource(r, h, size))
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEncoder(f, 1, randSource(r, h, size))
	if err != nil {
		t.Fatal(err)
	}
	sys := func(i int) *Packet {
		p, err := enc.Systematic(i)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	stream := []*Packet{sys(0), sys(1), sys(1), other.Packet(r)}
	for i := 0; i < 3*h; i++ {
		stream = append(stream, enc.Packet(r))
	}
	malformed := enc.Packet(r)
	malformed.Coeff = malformed.Coeff[:len(malformed.Coeff)-f.SymbolSize()] // h-1 coefficients
	return append(stream, sys(2), other.Packet(r), malformed, enc.Packet(r))
}

// TestRecoderAbsorbMatchesSeparateCalls pins Absorb against the calls it
// folds together. On the same stream, Absorb(p, r) reports what Add, Rank
// and a Complete before and after report; with the same rng seed its
// recoded packet equals Packet(r)'s, coefficients and payload; and closed
// is true exactly once per generation. Absorb(p, nil) reports the same and
// recodes nothing.
func TestRecoderAbsorbMatchesSeparateCalls(t *testing.T) {
	t.Parallel()
	const h, size = 8, 64
	for _, f := range fields {
		t.Run(f.Name(), func(t *testing.T) {
			t.Parallel()
			stream := absorbStream(t, f, h, size, rand.New(rand.NewSource(5)))
			newRC := func() *Recoder {
				rc, err := NewRecoder(f, 0, h, size)
				if err != nil {
					t.Fatal(err)
				}
				return rc
			}
			one, plain, sep := newRC(), newRC(), newRC()
			closes := 0
			for i, p := range stream {
				wasComplete := sep.Complete()
				wantInnov, wantErr := sep.Add(p)
				wantRank, wantClosed := sep.Rank(), !wasComplete && sep.Complete()

				seed := int64(100 + i)
				innov, rank, closed, out, err := one.Absorb(p, rand.New(rand.NewSource(seed)))
				if innov != wantInnov || rank != wantRank || closed != wantClosed || (err == nil) != (wantErr == nil) {
					t.Fatalf("packet %d: Absorb = (%v, %d, %v, %v), separate calls = (%v, %d, %v, %v)",
						i, innov, rank, closed, err, wantInnov, wantRank, wantClosed, wantErr)
				}
				if closed {
					closes++
				}
				want, ok := sep.Packet(rand.New(rand.NewSource(seed)))
				switch {
				case err != nil || !ok:
					if out != nil {
						t.Fatalf("packet %d: Absorb recoded %+v, want none (err %v, rank %d)", i, out, err, rank)
					}
				case out == nil:
					t.Fatalf("packet %d: Absorb recoded nothing at rank %d", i, rank)
				case out.Gen != want.Gen || !slices.Equal(out.Coeff, want.Coeff) || !bytes.Equal(out.Payload, want.Payload):
					t.Fatalf("packet %d: Absorb recoded %+v, Packet recoded %+v", i, out, want)
				}
				out.Release()
				want.Release()

				innov, rank, closed, out, err = plain.Absorb(p, nil)
				if innov != wantInnov || rank != wantRank || closed != wantClosed || (err == nil) != (wantErr == nil) || out != nil {
					t.Fatalf("packet %d: Absorb(p, nil) = (%v, %d, %v, %v, %v), separate calls = (%v, %d, %v, %v)",
						i, innov, rank, closed, out, err, wantInnov, wantRank, wantClosed, wantErr)
				}
			}
			if closes != 1 || !one.Complete() {
				t.Fatalf("closed %d times, complete %v; want once and complete", closes, one.Complete())
			}
			got, err := one.Decode()
			if err != nil {
				t.Fatal(err)
			}
			want, err := sep.Decode()
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("decoded packet %d differs", i)
				}
			}
		})
	}
}
