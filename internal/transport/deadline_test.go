package transport

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"ncast/internal/obs"
)

// TestSendDeadlineNonReadingPeer: a TCP peer that accepts the connection
// but never reads must not be able to block Send past the caller's
// context deadline. Before Conn.Send honored the context, the write
// blocked indefinitely once the kernel socket buffers filled, freezing
// whatever goroutine was sending (notably the tracker's dispatch loop).
func TestSendDeadlineNonReadingPeer(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Accept and hold connections open without ever reading from them.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				<-stop
				conn.Close()
			}()
		}
	}()

	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	// Pump large frames until the socket buffers fill and the write
	// deadline fires. 64 MiB total is far beyond any kernel default.
	msg := make([]byte, 1<<20)
	const deadline = 300 * time.Millisecond
	sawTimeout := false
	for i := 0; i < 64; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		err := ep.Send(ctx, ln.Addr().String(), msg)
		elapsed := time.Since(start)
		cancel()
		if elapsed > deadline+2*time.Second {
			t.Fatalf("send %d took %v, far beyond the %v deadline", i, elapsed, deadline)
		}
		if err != nil {
			sawTimeout = true
			break
		}
	}
	if !sawTimeout {
		t.Fatal("64 MiB to a non-reading peer never hit the write deadline")
	}
}

// timedSend runs send on its own goroutine and returns its duration and
// error. A send still blocked after limit fails the test, which would
// otherwise hang on a Send that never returns.
func timedSend(t *testing.T, limit time.Duration, send func() error) (time.Duration, error) {
	t.Helper()
	type result struct {
		took time.Duration
		err  error
	}
	done := make(chan result, 1)
	go func() {
		start := time.Now()
		err := send()
		done <- result{time.Since(start), err}
	}()
	select {
	case r := <-done:
		return r.took, r.err
	case <-time.After(limit):
		t.Fatalf("send still blocked after %v", limit)
		return 0, nil
	}
}

// fullMemPeer returns an instrumented in-memory endpoint "a" and its peer
// "b", whose 256-frame queue a has filled; b has not read.
func fullMemPeer(t *testing.T) (a, b Endpoint, m *obs.TransportMetrics) {
	t.Helper()
	fabric := NewNetwork()
	t.Cleanup(func() { fabric.Close() })
	a, err := fabric.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if b, err = fabric.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := a.Send(context.Background(), "b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m = obs.NewTransportMetrics(obs.NewRegistry(), "a")
	Instrument(a, m)
	return a, b, m
}

// TestSendDeadlineMemQueueWait: with no deadline on the context, a send
// into a full in-memory queue waits QueueWait, then drops the frame,
// counts the drop and returns nil, as a congested datagram link would.
func TestSendDeadlineMemQueueWait(t *testing.T) {
	t.Parallel()
	a, _, m := fullMemPeer(t)
	took, err := timedSend(t, 5*time.Second, func() error {
		return a.Send(context.Background(), "b", []byte("late"))
	})
	if err != nil {
		t.Fatalf("send into a full queue: %v, want nil", err)
	}
	if took < QueueWait || took > QueueWait+time.Second {
		t.Fatalf("send into a full queue took %v, want QueueWait (%v) plus slack", took, QueueWait)
	}
	if drops := m.Drops.Value(); drops != 1 {
		t.Fatalf("%d drops counted, want 1", drops)
	}
}

// TestSendDeadlineMemKeepsCallerDeadline: a context deadline replaces
// QueueWait, so a control sender that can wait longer still gets its
// frame through once the peer starts reading again.
func TestSendDeadlineMemKeepsCallerDeadline(t *testing.T) {
	t.Parallel()
	a, b, m := fullMemPeer(t)
	last := make(chan []byte, 1)
	go func() {
		time.Sleep(150 * time.Millisecond) // the peer resumes reading
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var msg []byte
		for i := 0; i <= 256; i++ {
			_, frame, err := b.Recv(ctx)
			if err != nil {
				break
			}
			msg = frame
		}
		last <- msg
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	took, err := timedSend(t, 5*time.Second, func() error { return a.Send(ctx, "b", []byte("control")) })
	if err != nil {
		t.Fatalf("send within its deadline: %v", err)
	}
	if took <= QueueWait {
		t.Fatalf("send returned after %v, before the reader resumed", took)
	}
	if got := <-last; string(got) != "control" {
		t.Fatalf("last frame read %q, want the control frame", got)
	}
	if drops := m.Drops.Value(); drops != 0 {
		t.Fatalf("%d drops counted, want 0", drops)
	}
}

// stalledBatchIO passes datagram I/O through to a real socket, except
// that sendBatch blocks until release is closed. stalled receives a value
// once the flusher is blocked in it.
type stalledBatchIO struct {
	udpBatchIO
	stalled chan struct{}
	release chan struct{}
}

func (s *stalledBatchIO) sendBatch(batch []outDatagram) (int, error) {
	select {
	case s.stalled <- struct{}{}:
	default:
	}
	<-s.release
	return s.udpBatchIO.sendBatch(batch)
}

// fullUDPPeer returns an instrumented UDP endpoint a whose flusher is
// stalled in sendBatch and whose one-batch send queue is full, its peer
// b, and the function that lets a's flusher go on.
func fullUDPPeer(t *testing.T) (a, b *UDPEndpoint, m *obs.TransportMetrics, release func()) {
	t.Helper()
	b, err := ListenUDP("127.0.0.1:0", UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	cfg := UDPConfig{}.withDefaults()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	bio, err := newBatchIO(conn, cfg.BatchSize)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	stub := &stalledBatchIO{udpBatchIO: bio, stalled: make(chan struct{}, 1), release: make(chan struct{})}
	a = newUDPEndpoint(conn, cfg, stub)
	var once sync.Once
	release = func() { once.Do(func() { close(stub.release) }) }
	t.Cleanup(func() { a.Close() })
	t.Cleanup(release) // runs first: Close waits for the flusher
	// The first frame stalls the flusher; the next BatchSize fill the queue.
	if err := a.Send(context.Background(), b.Addr(), []byte{0}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stub.stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never reached sendBatch")
	}
	for i := 1; i <= cfg.BatchSize; i++ {
		if err := a.Send(context.Background(), b.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.sendq) != cap(a.sendq) {
		t.Fatalf("%d of %d queue slots filled", len(a.sendq), cap(a.sendq))
	}
	m = obs.NewTransportMetricsKind(obs.NewRegistry(), "a", "udp")
	Instrument(a, m)
	return a, b, m, release
}

// TestSendDeadlineUDPQueueWait: with no deadline on the context, a send
// into a full UDP send queue waits QueueWait, then drops the frame,
// counts the drop and returns nil, exactly as the in-memory fabric does.
func TestSendDeadlineUDPQueueWait(t *testing.T) {
	t.Parallel()
	a, b, m, _ := fullUDPPeer(t)
	took, err := timedSend(t, 5*time.Second, func() error {
		return a.Send(context.Background(), b.Addr(), []byte("late"))
	})
	if err != nil {
		t.Fatalf("send into a full queue: %v, want nil", err)
	}
	if took < QueueWait || took > QueueWait+time.Second {
		t.Fatalf("send into a full queue took %v, want QueueWait (%v) plus slack", took, QueueWait)
	}
	if drops := m.Drops.Value(); drops != 1 {
		t.Fatalf("%d drops counted, want 1", drops)
	}
}

// TestSendDeadlineUDPKeepsCallerDeadline: a context deadline replaces
// QueueWait, so a sender that can wait longer still gets its frame onto
// the wire once the flusher drains the queue.
func TestSendDeadlineUDPKeepsCallerDeadline(t *testing.T) {
	t.Parallel()
	a, b, m, release := fullUDPPeer(t)
	go func() {
		time.Sleep(150 * time.Millisecond) // the flusher resumes
		release()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	took, err := timedSend(t, 5*time.Second, func() error { return a.Send(ctx, b.Addr(), []byte("control")) })
	if err != nil {
		t.Fatalf("send within its deadline: %v", err)
	}
	if took <= QueueWait {
		t.Fatalf("send returned after %v, before the flusher resumed", took)
	}
	recvCtx, recvCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer recvCancel()
	for {
		_, msg, err := b.Recv(recvCtx)
		if err != nil {
			t.Fatalf("control frame never arrived: %v", err)
		}
		if string(msg) == "control" {
			break
		}
	}
	if drops := m.Drops.Value(); drops != 0 {
		t.Fatalf("%d drops counted, want 0", drops)
	}
}

// TestSendDeadlineTCPQueueWait: with no deadline on the context, a TCP
// send to a peer that accepts but never reads fails within QueueWait of
// the kernel buffers filling, instead of blocking forever.
func TestSendDeadlineTCPQueueWait(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				<-stop
				conn.Close()
			}()
		}
	}()
	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	msg := make([]byte, 1<<20)
	for i := 0; i < 64; i++ {
		took, err := timedSend(t, 10*time.Second, func() error {
			return ep.Send(context.Background(), ln.Addr().String(), msg)
		})
		if took > QueueWait+time.Second {
			t.Fatalf("send %d took %v, want at most QueueWait (%v) plus slack", i, took, QueueWait)
		}
		if err != nil {
			return
		}
	}
	t.Fatal("64 MiB to a non-reading peer never hit the write deadline")
}
