package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ncast/internal/core"
	"ncast/internal/gf"
	"ncast/internal/obs"
	"ncast/internal/protocol"
	"ncast/internal/rlnc"
	"ncast/internal/transport"
)

// nsPerCall measures one call into a layer. run(n) makes n calls and
// returns the time that counts (a run may leave its own bookkeeping
// untimed); the result is the median nanoseconds per call over five
// batches, each sized to take about a fifth of budget. Medians of
// batches, not one long loop, so a scheduler hiccup costs one sample
// instead of skewing the mean.
func nsPerCall(budget time.Duration, run func(n int) time.Duration) float64 {
	n := 1
	for {
		d := run(n)
		if d >= budget/10 || n >= 1<<26 {
			break
		}
		if d < 50*time.Microsecond {
			n *= 8
		} else {
			n = int(float64(n)*float64(budget/5)/float64(d)) + 1
		}
	}
	samples := make([]float64, 5)
	for i := range samples {
		samples[i] = float64(run(n)) / float64(n)
	}
	return median(samples)
}

// loop is the common run: n back-to-back calls of fn, all of it timed.
func loop(fn func()) func(n int) time.Duration {
	return func(n int) time.Duration {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t)
	}
}

// layerBench measures each layer in isolation by timing calls into its
// exported functions, at the packet shape of workload w, and stores the
// results under the per-layer metric names.
func (w spec) layerBench(seed int64, budget time.Duration, out map[string]float64) error {
	f := gf.F256
	h, size := w.genSize, w.pktSize
	r := rand.New(rand.NewSource(seed))

	// gf: the multiply-accumulate kernel every coded byte passes through,
	// at the two payload sizes the workloads use.
	dst, src := make([]byte, 1024), make([]byte, 1024)
	r.Read(src)
	out["gf.addmul256_1k_gb_s"] = 1024 / nsPerCall(budget, loop(func() { f.AddMulSlice(dst, src, 0x5A) })) // bytes per ns
	out["gf.addmul256_64b_ns"] = nsPerCall(budget, loop(func() { f.AddMulSlice(dst[:64], src[:64], 0x5A) }))

	// rlnc: emit and absorb by packet kind, one generation of h packets.
	source := make([][]byte, h)
	for i := range source {
		source[i] = make([]byte, size)
		r.Read(source[i])
	}
	enc, err := rlnc.NewEncoder(f, 0, source)
	if err != nil {
		return err
	}
	out["rlnc.encode_ns"] = nsPerCall(budget, loop(func() { enc.Packet(r).Release() }))
	coded, sys := make([]*rlnc.Packet, h), make([]*rlnc.Packet, h)
	full, err := rlnc.NewRecoder(f, 0, h, size)
	if err != nil {
		return err
	}
	for i := range coded {
		if sys[i], err = enc.Systematic(i); err != nil {
			return err
		}
		// Keep drawing until the packet is innovative, so the h coded
		// packets always span the generation.
		for coded[i] == nil {
			p := enc.Packet(r)
			innovative, err := full.Add(p)
			if err != nil {
				return err
			}
			if innovative {
				coded[i] = p
			}
		}
	}
	out["rlnc.recode_ns"] = nsPerCall(budget, loop(func() {
		p, _ := full.Packet(r)
		p.Release()
	}))
	// One call absorbs a whole generation into a fresh recoder (the
	// allocation of its basis is part of what a node pays per
	// generation); divide by h for the per-packet figure.
	absorbGen := func(feed []*rlnc.Packet) float64 {
		return nsPerCall(budget, loop(func() {
			rc, _ := rlnc.NewRecoder(f, 0, h, size)
			for _, p := range feed {
				_, _ = rc.Add(p) // feed packets are valid by construction
			}
		})) / float64(h)
	}
	out["rlnc.absorb_coded_ns"] = absorbGen(coded)
	out["rlnc.absorb_sys_ns"] = absorbGen(sys)
	extra := enc.Packet(r)
	out["rlnc.absorb_redundant_ns"] = nsPerCall(budget, loop(func() { _, _ = full.Add(extra) }))

	// rlnc: whole-file decode of an all-coded feed with two surplus
	// packets per generation, serial and with one worker per CPU.
	params := rlnc.Params{Field: f, GenSize: h, PacketSize: size}
	gens := min(max(w.generations(), 1), 256) // join-churn has no content: one generation
	content := seededBytes(seed, gens*h*size)
	fe, err := rlnc.NewFileEncoder(params, content)
	if err != nil {
		return err
	}
	var feed []*rlnc.Packet
	for g := 0; g < gens; g++ {
		for i := 0; i < h+2; i++ {
			p, err := fe.Packet(g, r)
			if err != nil {
				return err
			}
			feed = append(feed, p)
		}
	}
	mbPerS := func(ns float64) float64 { return float64(len(content)) / ns * 1e3 }
	out["rlnc.file_decode_coded_mb_s"] = mbPerS(nsPerCall(2*budget, loop(func() {
		fd, _ := rlnc.NewFileDecoder(params, len(content))
		for _, p := range feed {
			_, _ = fd.Add(p)
		}
	})))
	clones := make([]*rlnc.Packet, len(feed))
	out["rlnc.file_decode_par_mb_s"] = mbPerS(nsPerCall(2*budget, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			// The pool takes ownership of what it is fed; a real caller
			// already owns its packets, so the cloning is left untimed.
			for j, p := range feed {
				clones[j] = p.ClonePooled()
			}
			t := time.Now()
			pd, _ := rlnc.NewParallelFileDecoder(params, len(content), runtime.NumCPU(), nil)
			for _, p := range clones {
				_ = pd.Add(p)
			}
			pd.Close()
			d += time.Since(t)
		}
		return d
	}))

	// protocol: the data-frame codec around every packet on the wire, and
	// the control codec around one join (hello out, welcome back).
	frame := protocol.AppendDataSeq(nil, f, 1, 7, 1, protocol.TraceContext{}, coded[0])
	buf := make([]byte, 0, len(frame))
	encode := func() { buf = protocol.AppendDataSeq(buf[:0], f, 1, 7, 1, protocol.TraceContext{}, coded[0]) }
	decode := func() {
		if _, _, _, _, p, err := protocol.DecodeDataSeq(f, frame); err == nil {
			p.Release()
		}
	}
	out["protocol.frame_encode_ns"] = nsPerCall(budget, loop(encode))
	out["protocol.frame_decode_ns"] = nsPerCall(budget, loop(decode))
	out["protocol.frame_allocs"] = testing.AllocsPerRun(200, func() { encode(); decode() })
	hello := protocol.Hello{Addr: "swarm0!n12345", Degree: w.d}
	welcome := protocol.Welcome{ID: 1, K: w.k, Degree: w.d, Threads: make([]int, w.d), LeaseMillis: 500,
		Session: protocol.SessionParams{FieldBits: 8, GenSize: h, PacketSize: size, ContentLen: w.contentBytes}}
	roundTrip := func(typ protocol.MsgType, payload, into interface{}) {
		b, err := protocol.EncodeControl(typ, payload)
		if err != nil {
			return
		}
		if _, raw, err := protocol.DecodeControl(b); err == nil {
			_ = json.Unmarshal(raw, into)
		}
	}
	out["protocol.control_codec_ns"] = nsPerCall(budget, loop(func() {
		roundTrip(protocol.MsgHello, hello, new(protocol.Hello))
		roundTrip(protocol.MsgWelcome, welcome, new(protocol.Welcome))
	}))

	// transport: one frame of this workload's size through the in-memory
	// fabric, Send to Recv on one goroutine; then the loopback UDP pair.
	netw := transport.NewNetwork(transport.WithSeed(seed))
	a, err := netw.Endpoint("a")
	if err != nil {
		return err
	}
	b, err := netw.Endpoint("b")
	if err != nil {
		return err
	}
	ctx := context.Background()
	out["transport.mem_frame_ns"] = nsPerCall(budget, loop(func() {
		if a.Send(ctx, "b", frame) == nil {
			_, _, _ = b.Recv(ctx)
		}
	}))
	netw.Close()
	if err := udpBench(frame, 3*budget, out); err != nil {
		return err
	}

	// core: the three matrix operations behind hello, good-bye and
	// repair, on a curtain holding 20000 rows. Each timed call is undone
	// or made good untimed, so the population stays where it was.
	cur, err := core.New(w.k, w.d, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	ids := make([]core.NodeID, 20000)
	for i := range ids {
		ids[i] = cur.Join()
	}
	out["core.join_ns"] = nsPerCall(budget, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			id := cur.Join()
			d += time.Since(t)
			_ = cur.Leave(id)
		}
		return d
	})
	remove := func(op func(core.NodeID)) func(n int) time.Duration {
		return func(n int) time.Duration {
			var d time.Duration
			for i := 0; i < n; i++ {
				j := r.Intn(len(ids))
				t := time.Now()
				op(ids[j])
				d += time.Since(t)
				ids[j] = cur.Join()
			}
			return d
		}
	}
	out["core.leave_ns"] = nsPerCall(budget, remove(func(id core.NodeID) { _ = cur.Leave(id) }))
	out["core.repair_ns"] = nsPerCall(budget, remove(func(id core.NodeID) {
		if cur.Fail(id) == nil {
			_ = cur.Repair(id)
		}
	}))
	return nil
}

// udpBench streams frames through one UDPEndpoint pair on the host's
// loopback interface with at most half a send queue of frames in flight,
// so the sender offers what the pair can carry instead of flooding its
// own queue. It reports what the receiver saw: delivered frames per
// second, datagrams per vectorized send, and the share of offered frames
// that never arrived (queue drops at either end; loopback itself loses
// nothing).
func udpBench(frame []byte, dur time.Duration, out map[string]float64) error {
	tx, err := transport.ListenUDP("127.0.0.1:0", transport.UDPConfig{})
	if err != nil {
		return err
	}
	defer tx.Close()
	rx, err := transport.ListenUDP("127.0.0.1:0", transport.UDPConfig{})
	if err != nil {
		return err
	}
	defer rx.Close()
	m := obs.NewTransportMetricsKind(obs.NewRegistry(), "tx", "udp")
	transport.Instrument(tx, m)
	ctx, cancel := context.WithCancel(context.Background())
	var received atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, _, err := rx.Recv(ctx); err != nil {
				return
			}
			received.Add(1)
		}
	}()
	const window = 512
	var offered, lost int64
	start := time.Now()
	progress, seen := start, int64(0)
	for time.Since(start) < dur {
		got := received.Load()
		if got != seen {
			progress, seen = time.Now(), got
		}
		if offered-got-lost < window {
			if tx.Send(ctx, rx.Addr(), frame) == nil {
				offered++
			}
			continue
		}
		// A dropped frame never arrives to reopen the window: after 5 ms
		// without an arrival, write what is outstanding off as lost.
		if time.Since(progress) > 5*time.Millisecond {
			lost = offered - got
			progress = time.Now()
		}
		runtime.Gosched()
	}
	elapsed := time.Since(start)
	time.Sleep(5 * time.Millisecond) // let the last window land
	cancel()
	<-done
	got := received.Load()
	out["transport.udp_frames_per_s"] = float64(got) / elapsed.Seconds()
	if c := m.SendBatch.Count(); c > 0 {
		out["transport.udp_batch_mean"] = m.SendBatch.Sum() / float64(c)
	}
	if offered > 0 {
		out["transport.udp_drop_ratio"] = float64(offered-got) / float64(offered)
	}
	return nil
}
