package transport

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// recvOverride embeds Endpoint and overrides Recv, as the protocol tests'
// attack and loss wrappers do.
type recvOverride struct {
	Endpoint
	seen int
}

func (r *recvOverride) Recv(ctx context.Context) (string, []byte, error) {
	from, msg, err := r.Endpoint.Recv(ctx)
	if err == nil {
		r.seen++
	}
	return from, msg, err
}

// TestBatchedKeepsRecvOverride checks that a wrapper which embeds an
// endpoint with RecvBatch but overrides Recv gets the one-frame adapter,
// so every frame still passes through the override.
func TestBatchedKeepsRecvOverride(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	if _, ok := b.(BatchReceiver); !ok {
		t.Fatal("fabric endpoint has no RecvBatch")
	}
	w := &recvOverride{Endpoint: b}
	rx := Batched(w)
	if _, ok := rx.(oneFrame); !ok {
		t.Fatalf("Batched(wrapper) = %T, want the one-frame adapter", rx)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const frames = 5
	for i := 0; i < frames; i++ {
		if err := a.Send(ctx, "b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var fs [RecvBatchLen]Frame
	for got := 0; got < frames; {
		k, err := rx.RecvBatch(ctx, fs[:])
		if err != nil {
			t.Fatal(err)
		}
		if k != 1 {
			t.Fatalf("adapter handed over %d frames, want 1", k)
		}
		if fs[0].From != "a" || !bytes.Equal(fs[0].Msg, []byte{byte(got)}) {
			t.Fatalf("frame %d = %q from %q", got, fs[0].Msg, fs[0].From)
		}
		fs[0].Release() // nothing to recycle: a no-op
		got++
	}
	if w.seen != frames {
		t.Fatalf("override saw %d frames, want %d", w.seen, frames)
	}
}

// TestMemRecvBatchDrains checks that the fabric's RecvBatch hands over
// every queued frame in one call, in order, and that released buffers
// come back for later frames.
func TestMemRecvBatchDrains(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if err := a.Send(ctx, "b", []byte(fmt.Sprint("frame", i))); err != nil {
			t.Fatal(err)
		}
	}
	var fs [RecvBatchLen]Frame
	k, err := Batched(b).RecvBatch(ctx, fs[:])
	if err != nil {
		t.Fatal(err)
	}
	if k != 5 {
		t.Fatalf("batch of %d, want 5", k)
	}
	first := &fs[0].buf[:1][0]
	for i := range fs[:k] {
		if fs[i].From != "a" || string(fs[i].Msg) != fmt.Sprint("frame", i) {
			t.Fatalf("frame %d = %q from %q", i, fs[i].Msg, fs[i].From)
		}
	}
	for i := k - 1; i >= 0; i-- {
		fs[i].Release()
	}
	if fs[0].Msg != nil || fs[0].pool != nil {
		t.Fatal("Release left the frame set")
	}
	// The free list is last in, first out: the next frame reuses the
	// buffer released last, the first frame's.
	if err := a.Send(ctx, "b", []byte("again")); err != nil {
		t.Fatal(err)
	}
	if k, err = Batched(b).RecvBatch(ctx, fs[:]); err != nil || k != 1 {
		t.Fatalf("RecvBatch = %d, %v", k, err)
	}
	if &fs[0].buf[:1][0] != first || string(fs[0].Msg) != "again" {
		t.Fatalf("frame %q not in the recycled buffer", fs[0].Msg)
	}
}

// TestMemRecvBatchConcurrentSenders has several senders share one
// receiver's buffer pool while the receiver releases what it reads: each
// frame must arrive intact, in its sender's order.
func TestMemRecvBatchConcurrentSenders(t *testing.T) {
	t.Parallel()
	const senders, frames = 4, 500
	n := NewNetwork()
	defer n.Close()
	b, _ := n.Endpoint("b")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := n.Endpoint(fmt.Sprint("s", s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				// Frames of varied length, so buffers of different sizes
				// cycle through the pool.
				msg := bytes.Repeat([]byte{byte(s), byte(i)}, 1+(i*7)%300)
				// ctx has a deadline, so a full queue waits, not drops.
				if err := ep.Send(ctx, "b", msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	next := make([]int, senders)
	rx := Batched(b)
	var fs [RecvBatchLen]Frame
	for got := 0; got < senders*frames; {
		k, err := rx.RecvBatch(ctx, fs[:])
		if err != nil {
			t.Fatalf("after %d frames: %v", got, err)
		}
		for i := range fs[:k] {
			var s int
			if _, err := fmt.Sscan(fs[i].From[1:], &s); err != nil {
				t.Fatal(err)
			}
			want := bytes.Repeat([]byte{byte(s), byte(next[s])}, 1+(next[s]*7)%300)
			if !bytes.Equal(fs[i].Msg, want) {
				t.Fatalf("frame %d from %s corrupt or out of order", next[s], fs[i].From)
			}
			next[s]++
			fs[i].Release()
		}
		got += k
	}
	wg.Wait()
}

// TestMemRecvBatchHoldsUndueFrame checks that on a fabric with latency a
// frame drained before it is due is held over, not delivered early.
func TestMemRecvBatchHoldsUndueFrame(t *testing.T) {
	t.Parallel()
	const latency = 40 * time.Millisecond
	n := NewNetwork(WithLatency(latency))
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Send(ctx, "b", []byte("early")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(latency / 2)
	late := time.Now()
	if err := a.Send(ctx, "b", []byte("late")); err != nil {
		t.Fatal(err)
	}
	var fs [RecvBatchLen]Frame
	rx := Batched(b)
	k, err := rx.RecvBatch(ctx, fs[:])
	if err != nil || k != 1 || string(fs[0].Msg) != "early" {
		t.Fatalf("first batch: %d frames (%q), %v; want only the due frame", k, fs[0].Msg, err)
	}
	k, err = rx.RecvBatch(ctx, fs[:])
	if err != nil || k != 1 || string(fs[0].Msg) != "late" {
		t.Fatalf("second batch: %d frames (%q), %v", k, fs[0].Msg, err)
	}
	if at := time.Since(late); at < latency-5*time.Millisecond {
		t.Fatalf("held frame delivered %v after its send, want >= %v", at, latency)
	}
}

// TestMemRecvWithoutReleaseAllocatesOnce pins what a consumer that never
// releases pays on the fabric: one buffer per frame, as before buffers
// were recycled.
func TestMemRecvWithoutReleaseAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	ctx := context.Background()
	msg := make([]byte, 100)
	perFrame := allocsPerRound(func() {
		if err := a.Send(ctx, "b", msg); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if perFrame < 0.99 || perFrame > 1.01 {
		t.Fatalf("send+Recv allocates %.3f objects per frame, want 1", perFrame)
	}
}

// TestMemRecvBatchAllocs pins the fabric's steady state when every frame
// is released: no allocation per frame.
func TestMemRecvBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	ctx := context.Background()
	msg := make([]byte, 100)
	rx := Batched(b)
	var fs [RecvBatchLen]Frame
	perFrame := allocsPerRound(func() {
		if err := a.Send(ctx, "b", msg); err != nil {
			t.Fatal(err)
		}
		k, err := rx.RecvBatch(ctx, fs[:])
		if err != nil {
			t.Fatal(err)
		}
		for i := range fs[:k] {
			fs[i].Release()
		}
	})
	if perFrame > 0.01 {
		t.Fatalf("send+RecvBatch+Release allocates %.3f objects per frame, want 0", perFrame)
	}
}

// TestReleasePoisons shows what Release does to a released buffer: with
// -tags ncastpoison it is overwritten with PoisonByte, so a use after
// release reads garbage; without the tag it is left as it was.
func TestReleasePoisons(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Send(ctx, "b", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	var fs [1]Frame
	if _, err := Batched(b).RecvBatch(ctx, fs[:]); err != nil {
		t.Fatal(err)
	}
	kept := fs[0].Msg // a use after release, on purpose
	fs[0].Release()
	if !poisonReleased {
		if string(kept) != "payload" {
			t.Fatalf("untagged Release changed the buffer to %q", kept)
		}
		return
	}
	if want := bytes.Repeat([]byte{PoisonByte}, len(kept)); !bytes.Equal(kept, want) {
		t.Fatalf("released buffer reads %x, want the poison pattern", kept)
	}
}

// TestReleaseBatchPoisons releases, in one call, frames from two
// endpoints' pools interleaved with a frame no endpoint recycles. Every
// pooled buffer returns to its own pool exactly once, is poisoned under
// -tags ncastpoison as Release poisons it and left as it was without the
// tag; the unpooled frame's bytes are never touched; every frame is
// cleared.
func TestReleaseBatchPoisons(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	c, _ := n.Endpoint("c")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	recv := func(ep Endpoint, msg string) Frame {
		t.Helper()
		if err := a.Send(ctx, ep.Addr(), []byte(msg)); err != nil {
			t.Fatal(err)
		}
		var fs [1]Frame
		if _, err := Batched(ep).RecvBatch(ctx, fs[:]); err != nil {
			t.Fatal(err)
		}
		return fs[0]
	}
	own := Frame{From: "x", Msg: []byte("caller-owned")}
	fs := []Frame{recv(b, "b0"), recv(b, "b1"), recv(c, "c0"), own, recv(b, "b2"), recv(c, "c1")}
	kept := make([][]byte, len(fs)) // uses after release, on purpose
	want := make([]string, len(fs))
	for i := range fs {
		kept[i], want[i] = fs[i].Msg, string(fs[i].Msg)
	}
	ReleaseBatch(fs)

	for i := range fs {
		if fs[i].From != "" || fs[i].Msg != nil || fs[i].buf != nil || fs[i].pool != nil {
			t.Fatalf("frame %d not cleared: %+v", i, fs[i])
		}
	}
	// Each pool holds exactly its own frames' buffers, once each.
	for _, tc := range []struct {
		ep   Endpoint
		want []int
	}{{b, []int{0, 1, 4}}, {c, []int{2, 5}}} {
		p := &tc.ep.(*memEndpoint).pool
		p.mu.Lock()
		free := p.free
		p.mu.Unlock()
		if len(free) != len(tc.want) {
			t.Fatalf("%s's pool holds %d buffers, want %d", tc.ep.Addr(), len(free), len(tc.want))
		}
		for j, i := range tc.want {
			if &free[j][:1][0] != &kept[i][:1][0] {
				t.Fatalf("%s's pool slot %d is not frame %d's buffer", tc.ep.Addr(), j, i)
			}
		}
	}
	for i, msg := range kept {
		switch {
		case i == 3 || !poisonReleased:
			if string(msg) != want[i] {
				t.Fatalf("frame %d reads %q after release, want %q untouched", i, msg, want[i])
			}
		default:
			if full := msg[:cap(msg)]; !bytes.Equal(full, bytes.Repeat([]byte{PoisonByte}, len(full))) {
				t.Fatalf("released buffer %d reads %x, want the poison pattern", i, full)
			}
		}
	}
}

// TestSenderCacheSplitAllocs pins that splitting a frame from a cached
// sender allocates no address string, and that a new sender still splits
// right.
func TestSenderCacheSplitAllocs(t *testing.T) {
	var c senderCache
	frame := prependSender("10.0.0.1:4000", []byte("payload"))
	if allocs := testing.AllocsPerRun(100, func() {
		from, payload, err := c.split(frame)
		if err != nil || from != "10.0.0.1:4000" || string(payload) != "payload" {
			t.Fatalf("split = %q, %q, %v", from, payload, err)
		}
	}); allocs != 0 {
		t.Fatalf("cached split allocates %.2f objects, want 0", allocs)
	}
	for i := 0; i < 2*senderCacheLen; i++ {
		addr := fmt.Sprintf("10.0.0.%d:4000", i)
		if from, _, err := c.split(prependSender(addr, nil)); err != nil || from != addr {
			t.Fatalf("split = %q, %v; want %q", from, err, addr)
		}
	}
	if _, _, err := c.split([]byte{0, 0, 0, 9, 'x'}); err == nil {
		t.Fatal("bad sender length accepted")
	}
}

// TestFaultyRecvBatchFilters checks that Faulty drops the frames its
// seeded RecvLoss coin picks out of a batch in place and passes the rest
// in order: the kept set is the one the same seed's coin sequence gives.
func TestFaultyRecvBatchFilters(t *testing.T) {
	t.Parallel()
	const n, loss, seed = RecvBatchLen, 0.5, 7
	f, b, _ := faultyPair(t, FaultConfig{RecvLoss: loss, Seed: seed})
	coin := rand.New(rand.NewSource(seed))
	var want []byte
	for i := 0; i < n; i++ {
		if coin.Float64() >= loss {
			want = append(want, byte(i))
		}
	}
	if len(want) == 0 || len(want) == n {
		t.Fatalf("seed %d keeps %d of %d frames: pick one that drops some", seed, len(want), n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := b.Send(ctx, "a", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	var fs [RecvBatchLen]Frame
	for len(got) < len(want) {
		k, err := f.RecvBatch(ctx, fs[:])
		if err != nil {
			t.Fatalf("after %v: %v", got, err)
		}
		for i := range fs[:k] {
			if fs[i].From != "b" {
				t.Fatalf("frame %d from %q", i, fs[i].From)
			}
			got = append(got, fs[i].Msg[0])
			fs[i].Release()
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	if got := f.Stats().RecvDropped; got != uint64(n-len(want)) {
		t.Fatalf("RecvDropped = %d, want %d", got, n-len(want))
	}
}

// TestUDPRecvBatchAllocs pins the allocations of one datagram over
// loopback in steady state, send and receive, when the receiver releases
// every frame: the receive slots are re-armed with released buffers and
// the sender address is interned.
func TestUDPRecvBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	a, b := listenUDPPair(t, UDPConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	perFrame := recvBatchAllocs(t, ctx, a, b)
	// Measured: 0 over 2000 datagrams; the bound leaves room for the
	// runtime's own stray allocations, not for one per frame.
	if perFrame > 0.01 {
		t.Fatalf("UDP send+RecvBatch+Release allocates %.3f objects per frame, want 0", perFrame)
	}
}

// TestTCPRecvBatchAllocs is TestUDPRecvBatchAllocs over a TCP connection:
// frames are read into pooled buffers and written from the connection's
// own buffer. No workload runs TCP's data plane, so this is where its
// per-frame cost is pinned.
func TestTCPRecvBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on instrumented paths")
	}
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	perFrame := recvBatchAllocs(t, ctx, a, b)
	// Measured: 0 over 2000 frames, as on UDP.
	if perFrame > 0.01 {
		t.Fatalf("TCP send+RecvBatch+Release allocates %.3f objects per frame, want 0", perFrame)
	}
}

// recvBatchAllocs returns the allocations of sending one frame from a to
// b and taking it with RecvBatch and Release, after a warm-up.
func recvBatchAllocs(t *testing.T, ctx context.Context, a, b Endpoint) float64 {
	t.Helper()
	msg := make([]byte, 100)
	rx := Batched(b)
	var fs [RecvBatchLen]Frame
	round := func() {
		if err := a.Send(ctx, b.Addr(), msg); err != nil {
			t.Fatal(err)
		}
		k, err := rx.RecvBatch(ctx, fs[:])
		if err != nil {
			t.Fatal(err)
		}
		for i := range fs[:k] {
			if fs[i].From != a.Addr() || len(fs[i].Msg) != len(msg) {
				t.Fatalf("frame of %d bytes from %q", len(fs[i].Msg), fs[i].From)
			}
			fs[i].Release()
		}
	}
	return allocsPerRound(round)
}

// allocsPerRound returns the mean allocations of one call of round, over
// 2000 calls after 200 to warm up.
func allocsPerRound(round func()) float64 {
	for i := 0; i < 200; i++ {
		round()
	}
	const rounds = 2000
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	}) / rounds
}
