package rlnc

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ncast/internal/gf"
)

// The differential suite pins the one property the decode engine must
// not bend: for any packet schedule that completes, the parallel
// decoder's output is byte-identical to the serial FileDecoder's (and to
// the original content). Schedules are seeded and deterministic, and span
// loss, duplication, stale traffic for completed generations, systematic
// and coded mixes, traffic re-mixed by two hops of recoders, and every
// worker count the bench matrix uses. The whole file also runs under
// -race via `make race`, which is what makes the worker-pool handoff and
// the recoder's locking part of the contract.

// diffSchedule builds one deterministic packet feed for the scenario.
// Returned packets are owned by the caller.
type diffScenario struct {
	name     string
	field    gf.Field
	genSize  int
	pktSize  int
	schedule func(t *testing.T, fe *FileEncoder, params Params, gens int, r *rand.Rand) []*Packet
}

// codedOnly emits random combinations round-robin until every generation
// has a comfortable surplus.
func codedOnly(t *testing.T, fe *FileEncoder, params Params, gens int, r *rand.Rand) []*Packet {
	var pkts []*Packet
	for round := 0; round < params.GenSize+4; round++ {
		for g := 0; g < gens; g++ {
			p, err := fe.Packet(g, r)
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, p)
		}
	}
	return pkts
}

// systematicLossFree sends exactly the source packets, flagged, in order
// — the fast-path steady state.
func systematicLossFree(t *testing.T, fe *FileEncoder, params Params, gens int, r *rand.Rand) []*Packet {
	var pkts []*Packet
	for g := 0; g < gens; g++ {
		for i := 0; i < params.GenSize; i++ {
			p, err := fe.Systematic(g, i)
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, p)
		}
	}
	return pkts
}

// systematicWithLoss drops ~30% of the systematic pass and repairs with
// coded packets, mirroring the paper's systematic-plus-repair source.
func systematicWithLoss(t *testing.T, fe *FileEncoder, params Params, gens int, r *rand.Rand) []*Packet {
	var pkts []*Packet
	for g := 0; g < gens; g++ {
		for i := 0; i < params.GenSize; i++ {
			if r.Intn(10) < 3 {
				continue // lost
			}
			p, err := fe.Systematic(g, i)
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, p)
		}
	}
	for round := 0; round < params.GenSize/2+4; round++ {
		for g := 0; g < gens; g++ {
			p, err := fe.Packet(g, r)
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, p)
		}
	}
	return pkts
}

// duplicatesAndStale interleaves systematic and coded packets, sends
// every third packet twice, and appends a stale tail of traffic for
// generation 0 after it is long complete.
func duplicatesAndStale(t *testing.T, fe *FileEncoder, params Params, gens int, r *rand.Rand) []*Packet {
	var pkts []*Packet
	add := func(p *Packet, err error) {
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
		if len(pkts)%3 == 0 {
			pkts = append(pkts, p.Clone())
		}
	}
	for g := 0; g < gens; g++ {
		for i := 0; i < params.GenSize; i++ {
			if i%2 == 0 {
				add(fe.Systematic(g, i))
			} else {
				add(fe.Packet(g, r))
			}
		}
	}
	for round := 0; round < params.GenSize/2+4; round++ {
		for g := 0; g < gens; g++ {
			add(fe.Packet(g, r))
		}
	}
	for i := 0; i < 2*params.GenSize; i++ {
		add(fe.Packet(0, r)) // stale: generation 0 finished long ago
	}
	return pkts
}

// twoHopRecoded relays every generation source -> Recoder -> Recoder and
// returns what the second hop emits. The source sends a systematic round
// and then coded repair, every link drops 5%, and each hop forwards one
// packet out per packet in, as a node does. On the way the first hop is
// held at every partial rank it passes through and checked to hand
// exactly that rank downstream.
func twoHopRecoded(t *testing.T, fe *FileEncoder, params Params, gens int, r *rand.Rand) []*Packet {
	var pkts []*Packet
	dropped := func() bool { return r.Intn(20) == 0 }
	for g := 0; g < gens; g++ {
		newRecoder := func() *Recoder {
			rc, err := NewRecoder(params.Field, uint32(g), params.GenSize, params.PacketSize)
			if err != nil {
				t.Fatal(err)
			}
			return rc
		}
		hop1, hop2 := newRecoder(), newRecoder()
		sink, err := NewDecoder(params.Field, uint32(g), params.GenSize, params.PacketSize)
		if err != nil {
			t.Fatal(err)
		}
		relay := func(p *Packet, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if dropped() {
				return
			}
			innovative, err := hop1.Add(p)
			if err != nil {
				t.Fatal(err)
			}
			if innovative {
				checkForwardsExactRank(t, hop1, params, r)
			}
			if q, ok := hop1.Packet(r); ok && !dropped() {
				if _, err := hop2.Add(q); err != nil {
					t.Fatal(err)
				}
			}
			if out, ok := hop2.Packet(r); ok && !dropped() {
				if _, err := sink.Add(out); err != nil {
					t.Fatal(err)
				}
				pkts = append(pkts, out)
			}
		}
		for i := 0; i < params.GenSize; i++ {
			relay(fe.Systematic(g, i))
		}
		for n := 0; !sink.Complete(); n++ {
			if n > 50*params.GenSize {
				t.Fatalf("generation %d stuck: hop ranks %d, %d, sink %d", g, hop1.Rank(), hop2.Rank(), sink.Rank())
			}
			relay(fe.Packet(g, r))
		}
	}
	return pkts
}

// checkForwardsExactRank drains rc, held at its current rank, into a
// fresh decoder: the recoder's echelon rows must span exactly the
// subspace it received, so the decoder reaches that rank and no packet
// ever takes it beyond.
func checkForwardsExactRank(t *testing.T, rc *Recoder, params Params, r *rand.Rand) {
	t.Helper()
	rank := rc.Rank()
	dec, err := NewDecoder(params.Field, rc.gen, params.GenSize, params.PacketSize)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 20*params.GenSize; n++ {
		p, ok := rc.Packet(r)
		if !ok {
			t.Fatalf("recoder at rank %d emitted nothing", rank)
		}
		if _, err := dec.Add(p); err != nil {
			t.Fatal(err)
		}
		p.Release()
		if dec.Rank() > rank {
			t.Fatalf("decoder reached rank %d from a rank-%d recoder", dec.Rank(), rank)
		}
	}
	if dec.Rank() != rank {
		t.Fatalf("decoder extracted rank %d from a rank-%d recoder", dec.Rank(), rank)
	}
}

func TestParallelMatchesSerialDifferential(t *testing.T) {
	t.Parallel()
	scenarios := []diffScenario{
		{"coded-only/GF256", gf.F256, 8, 128, codedOnly},
		{"coded-only/GF65536", gf.F65536, 8, 128, codedOnly},
		{"coded-only/GF2", gf.F2, 16, 64, codedOnly},
		{"systematic-loss-free/GF256", gf.F256, 8, 128, systematicLossFree},
		{"systematic-loss/GF256", gf.F256, 8, 128, systematicWithLoss},
		{"systematic-loss/GF65536", gf.F65536, 8, 128, systematicWithLoss},
		{"duplicates-stale/GF256", gf.F256, 8, 128, duplicatesAndStale},
		{"two-hop-recoded/GF256", gf.F256, 8, 128, twoHopRecoded},
		{"two-hop-recoded/GF65536", gf.F65536, 8, 128, twoHopRecoded},
		{"two-hop-recoded/GF2", gf.F2, 16, 64, twoHopRecoded},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			params := Params{Field: sc.field, GenSize: sc.genSize, PacketSize: sc.pktSize}
			const gens = 5
			// Ragged final generation: content stops mid-packet.
			contentLen := (gens-1)*params.genBytes() + params.genBytes()/2 + 3
			r := rand.New(rand.NewSource(1234))
			content := make([]byte, contentLen)
			r.Read(content)
			fe, err := NewFileEncoder(params, content)
			if err != nil {
				t.Fatal(err)
			}
			pkts := sc.schedule(t, fe, params, gens, r)

			fd, err := NewFileDecoder(params, contentLen)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				if _, err := fd.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			serial, err := fd.Bytes()
			if err != nil {
				t.Fatalf("serial decode: %v", err)
			}
			if !bytes.Equal(serial, content) {
				t.Fatal("serial output differs from content")
			}

			for _, workers := range []int{1, 2, 4, 8} {
				pd, err := NewParallelFileDecoder(params, contentLen, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pkts {
					if err := pd.Add(p.ClonePooled()); err != nil {
						t.Fatal(err)
					}
				}
				pd.Close()
				parallel, err := pd.Bytes()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !bytes.Equal(parallel, serial) {
					t.Fatalf("workers=%d: parallel output differs from serial", workers)
				}
			}
		})
	}
}

// TestRecoderConcurrentUse runs what a node with several decode workers
// does to one recoder — Add, Packet and Rank from different goroutines —
// and checks that everything emitted meanwhile still decodes to the
// source. Under -race it is the test of the codec's locking.
func TestRecoderConcurrentUse(t *testing.T) {
	t.Parallel()
	const h, size = 16, 256
	src := randSource(rand.New(rand.NewSource(41)), h, size)
	enc, err := NewEncoder(gf.F256, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRecoder(gf.F256, 0, h, size)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(gf.F256, 0, h, size)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // upstream: keeps adding, long past full rank
		defer wg.Done()
		r := rand.New(rand.NewSource(42))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var p *Packet
			if i < h/2 {
				p, _ = enc.Systematic(2 * i)
			} else {
				p = enc.Packet(r)
			}
			if _, err := rc.Add(p); err != nil {
				t.Error(err)
				return
			}
			p.Release()
		}
	}()
	go func() { // telemetry: reads rank while it moves
		defer wg.Done()
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			complete, rank := rc.Complete(), rc.Rank()
			if rank < last || rank > h || (complete && rank != h) {
				t.Errorf("rank went %d -> %d (h=%d, complete=%v)", last, rank, h, complete)
				return
			}
			last = rank
		}
	}()
	r := rand.New(rand.NewSource(43))
	for !dec.Complete() { // downstream: emits while rows are being installed
		p, ok := rc.Packet(r)
		if !ok {
			runtime.Gosched()
			continue
		}
		if _, err := dec.Add(p); err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	close(stop)
	wg.Wait()
	got, err := dec.Source()
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if !bytes.Equal(got[i], src[i]) {
			t.Fatalf("source packet %d corrupted by concurrent recoding", i)
		}
	}
}

// TestDecodeHotPathAllocs pins the receive-side allocation budget of the
// type every node runs: a recoder allocates its arenas on the
// generation's first packet and nothing after that — not to install a
// systematic packet, not to discard a redundant one at partial or full
// rank, not to emit.
func TestDecodeHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	r := rand.New(rand.NewSource(17))
	const h, size = 16, 1024
	enc, err := NewEncoder(gf.F256, 0, randSource(r, h, size))
	if err != nil {
		t.Fatal(err)
	}
	newRecoder := func() *Recoder {
		rc, err := NewRecoder(gf.F256, 0, h, size)
		if err != nil {
			t.Fatal(err)
		}
		return rc
	}
	add := func(rc *Recoder, p *Packet, wantInnovative bool) {
		if innovative, err := rc.Add(p); err != nil || innovative != wantInnovative {
			t.Fatalf("Add: innovative=%v err=%v, want innovative=%v", innovative, err, wantInnovative)
		}
	}

	// Systematic installs, through the one that closes rank and
	// back-substitutes. AllocsPerRun calls f runs+1 times.
	full := newRecoder()
	sys := make([]*Packet, h)
	for i := range sys {
		sys[i], _ = enc.Systematic(i)
		defer sys[i].Release()
	}
	add(full, sys[0], true)
	next := 1
	if n := testing.AllocsPerRun(h-2, func() {
		add(full, sys[next], true)
		next++
	}); n != 0 {
		t.Errorf("systematic install: %v allocs/op, want 0", n)
	}
	if !full.Complete() {
		t.Fatalf("rank %d after %d systematic packets", full.Rank(), h)
	}

	// Redundant at partial rank: eliminated on coefficients alone.
	half := newRecoder()
	for half.Rank() < h/2 {
		p := enc.Packet(r)
		if _, err := half.Add(p); err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	inSpan, _ := half.Packet(r)
	defer inSpan.Release()
	if n := testing.AllocsPerRun(100, func() { add(half, inSpan, false) }); n != 0 {
		t.Errorf("redundant Recoder.Add at partial rank: %v allocs/op, want 0", n)
	}

	// Redundant at full rank, and the emit that follows every receive.
	coded := enc.Packet(r)
	defer coded.Release()
	if n := testing.AllocsPerRun(100, func() { add(full, coded, false) }); n != 0 {
		t.Errorf("redundant Recoder.Add at full rank: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		p, _ := full.Packet(r)
		p.Release()
	}); n != 0 {
		t.Errorf("Recoder.Packet + Release: %v allocs/op, want 0", n)
	}
}
