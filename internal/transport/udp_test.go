package transport

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ncast/internal/obs"
)

func listenUDPPair(t *testing.T, cfg UDPConfig) (*UDPEndpoint, *UDPEndpoint) {
	t.Helper()
	a, err := ListenUDP("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenUDP("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

func recvOne(t *testing.T, ep Endpoint, timeout time.Duration) (string, []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	from, msg, err := ep.Recv(ctx)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return from, msg
}

func TestUDPEndpointRoundTrip(t *testing.T) {
	t.Parallel()
	a, b := listenUDPPair(t, UDPConfig{})
	ctx := context.Background()
	if err := a.Send(ctx, b.Addr(), []byte("over udp")); err != nil {
		t.Fatal(err)
	}
	from, msg := recvOne(t, b, 2*time.Second)
	if from != a.Addr() || string(msg) != "over udp" {
		t.Fatalf("got %q from %q (want from %q)", msg, from, a.Addr())
	}
	// Reply using the learned (advertised) sender address.
	if err := b.Send(ctx, from, []byte("ack")); err != nil {
		t.Fatal(err)
	}
	if _, msg := recvOne(t, a, 2*time.Second); string(msg) != "ack" {
		t.Fatalf("reply = %q", msg)
	}
}

func TestUDPEndpointManyFramesBatched(t *testing.T) {
	t.Parallel()
	// Four concurrent producers keep the one-batch send queue filling
	// while the flusher transmits; BatchSize 16 keeps the histogram
	// interesting. Loopback does not reorder often but UDP permits it,
	// so assert the multiset of payloads, not the order.
	cfg := UDPConfig{BatchSize: 16}
	a, b := listenUDPPair(t, cfg)
	reg := obs.NewRegistry()
	ma := obs.NewTransportMetricsKind(reg, "a", "udp")
	mb := obs.NewTransportMetricsKind(reg, "b", "udp")
	Instrument(a, ma)
	Instrument(b, mb)

	ctx := context.Background()
	const n = 256
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < n/4; j++ {
				payload := []byte{byte(base + j), 0xCA}
				if err := a.Send(ctx, b.Addr(), payload); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}(i * (n / 4))
	}
	wg.Wait()

	seen := make(map[byte]int)
	deadline := time.After(5 * time.Second)
	got := 0
	for got < n {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		_, msg, err := b.Recv(ctx)
		cancel()
		if err != nil {
			// UDP may legitimately drop under pressure; accept a mostly
			// complete run on loopback but require real traffic.
			break
		}
		seen[msg[0]]++
		got++
		select {
		case <-deadline:
			t.Fatal("timed out draining")
		default:
		}
	}
	if got < n/2 {
		t.Fatalf("received %d of %d frames over loopback", got, n)
	}
	// The send path must have used fewer syscalls than frames (batching)
	// and the batch histogram must have fired.
	if ma.SendBatch.Count() == 0 {
		t.Fatal("send batch histogram never observed")
	}
	if ma.SendBatch.Count() >= ma.FramesSent.Value() {
		t.Fatalf("no coalescing: %d batches for %d frames",
			ma.SendBatch.Count(), ma.FramesSent.Value())
	}
	if mb.RecvBatch.Count() == 0 {
		t.Fatal("recv batch histogram never observed")
	}
	if mb.FramesRecv.Value() == 0 {
		t.Fatal("recv frames counter never incremented")
	}
}

// TestUDPSendYieldsToFlusher pins the datagram plane's backpressure: the
// send queue holds one batch, Send yields after every enqueue and waits
// for room on a full queue, so on one P a burst of four batches reaches
// the flusher whole: no frame is dropped at the queue, which never holds
// more than a batch.
func TestUDPSendYieldsToFlusher(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, b := listenUDPPair(t, UDPConfig{})
	reg := obs.NewRegistry()
	m := obs.NewTransportMetricsKind(reg, "a", "udp")
	Instrument(a, m)

	batch := a.cfg.BatchSize
	if c := cap(a.sendq); c != batch {
		t.Fatalf("send queue holds %d frames, want one batch (%d)", c, batch)
	}
	burst := 4 * batch
	ctx := context.Background()
	for i := 0; i < burst; i++ {
		if err := a.Send(ctx, b.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if d := m.Drops.Value(); d != 0 {
		t.Fatalf("%d frames dropped at the send queue, want 0", d)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.FramesSent.Value() < uint64(burst) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames sent", m.FramesSent.Value(), burst)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUDPEndpointOversizeFrameRejected(t *testing.T) {
	t.Parallel()
	a, b := listenUDPPair(t, UDPConfig{MTU: 256})
	reg := obs.NewRegistry()
	m := obs.NewTransportMetricsKind(reg, "a", "udp")
	Instrument(a, m)
	err := a.Send(context.Background(), b.Addr(), make([]byte, 512))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if m.Drops.Value() != 1 {
		t.Fatalf("Drops = %d, want 1", m.Drops.Value())
	}
	// A frame that exactly fits still goes through.
	fit := make([]byte, 256-4-len(a.Addr()))
	if err := a.Send(context.Background(), b.Addr(), fit); err != nil {
		t.Fatal(err)
	}
	if _, msg := recvOne(t, b, 2*time.Second); len(msg) != len(fit) {
		t.Fatalf("fit frame = %d bytes, want %d", len(msg), len(fit))
	}
}

func TestUDPEndpointCloseUnblocksRecv(t *testing.T) {
	t.Parallel()
	a, err := ListenUDP("127.0.0.1:0", UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := a.Recv(context.Background())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	// Send after close fails fast; double close is fine.
	if err := a.Send(context.Background(), "127.0.0.1:1", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUDPEndpointPayloadIntegrity(t *testing.T) {
	t.Parallel()
	a, b := listenUDPPair(t, UDPConfig{})
	ctx := context.Background()
	want := bytes.Repeat([]byte{0x5A, 0xA5, 0x00, 0xFF}, 300) // 1200 B, near MTU
	if err := a.Send(ctx, b.Addr(), want); err != nil {
		t.Fatal(err)
	}
	_, got := recvOne(t, b, 2*time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("payload corrupted: %d bytes vs %d", len(got), len(want))
	}
	// The sender may reuse its buffer immediately (Send copies).
	if err := a.Send(ctx, b.Addr(), want[:8]); err != nil {
		t.Fatal(err)
	}
	for i := range want[:8] {
		want[i] = 0
	}
	_, got = recvOne(t, b, 2*time.Second)
	if got[0] != 0x5A {
		t.Fatal("Send aliased the caller's buffer")
	}
}

func TestListenSamePortSharesAddress(t *testing.T) {
	t.Parallel()
	tcp, udp, err := ListenSamePort("127.0.0.1:0", UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	defer udp.Close()
	if tcp.Addr() != udp.Addr() {
		t.Fatalf("tcp %q != udp %q", tcp.Addr(), udp.Addr())
	}

	// Both planes carry traffic independently on the shared port.
	tcp2, udp2, err := ListenSamePort("127.0.0.1:0", UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp2.Close()
	defer udp2.Close()
	ctx := context.Background()
	if err := tcp.Send(ctx, tcp2.Addr(), []byte("ctrl")); err != nil {
		t.Fatal(err)
	}
	if err := udp.Send(ctx, udp2.Addr(), []byte("data")); err != nil {
		t.Fatal(err)
	}
	if from, msg := recvOne(t, tcp2, 2*time.Second); from != tcp.Addr() || string(msg) != "ctrl" {
		t.Fatalf("tcp got %q from %q", msg, from)
	}
	if from, msg := recvOne(t, udp2, 2*time.Second); from != udp.Addr() || string(msg) != "data" {
		t.Fatalf("udp got %q from %q", msg, from)
	}
}

func TestDualRoutesByClassifier(t *testing.T) {
	t.Parallel()
	// Two fabrics under one address space: the data fabric drops
	// everything, so a frame that arrives proves it rode the control
	// plane and a frame that vanishes proves it rode the data plane.
	ctrlNet := NewNetwork()
	dataNet := NewNetwork(WithLoss(1.0), WithSeed(7))
	defer ctrlNet.Close()
	defer dataNet.Close()
	isData := func(msg []byte) bool { return len(msg) > 0 && msg[0] == 0 }

	mkDual := func(addr string) *Dual {
		c, err := ctrlNet.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dataNet.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		return NewDual(c, d, isData)
	}
	a := mkDual("a")
	b := mkDual("b")
	defer a.Close()
	defer b.Close()

	ctx := context.Background()
	if err := a.Send(ctx, "b", []byte{1, 'c'}); err != nil { // control
		t.Fatal(err)
	}
	if err := a.Send(ctx, "b", []byte{0, 'd'}); err != nil { // data, dropped
		t.Fatal(err)
	}
	if from, msg := recvOne(t, b, 2*time.Second); from != "a" || msg[1] != 'c' {
		t.Fatalf("control frame: %q from %q", msg, from)
	}
	rctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if _, _, err := b.Recv(rctx); err == nil {
		t.Fatal("data frame leaked onto the control plane")
	}
}

func TestDualMergesBothPlanes(t *testing.T) {
	t.Parallel()
	ctrlNet := NewNetwork()
	dataNet := NewNetwork()
	defer ctrlNet.Close()
	defer dataNet.Close()
	isData := func(msg []byte) bool { return msg[0] == 0 }
	mk := func(addr string) *Dual {
		c, _ := ctrlNet.Endpoint(addr)
		d, _ := dataNet.Endpoint(addr)
		return NewDual(c, d, isData)
	}
	a, b := mk("a"), mk("b")
	defer a.Close()
	defer b.Close()
	ctx := context.Background()
	if err := a.Send(ctx, "b", []byte{0, 'd'}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, "b", []byte{1, 'c'}); err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]bool{}
	for i := 0; i < 2; i++ {
		_, msg := recvOne(t, b, 2*time.Second)
		kinds[msg[0]] = true
	}
	if !kinds[0] || !kinds[1] {
		t.Fatalf("merged stream missing a plane: %v", kinds)
	}
	if a.Addr() != "a" {
		t.Fatalf("Addr = %q", a.Addr())
	}
	// Close unblocks Recv on the merged stream.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after close: %v", err)
	}
}
